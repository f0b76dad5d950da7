//! Flow-sensitive static model checking: CFG × automaton product.
//!
//! For each compiled assertion automaton, this module abstracts every
//! TIR function body reachable from the assertion's temporal bound
//! into its sequence/branching structure of observable events —
//! function entries/exits, field stores, assertion-site visits — and
//! explores the product of that interprocedural event flow with the
//! automaton, using the *same* symbol-matching rules the runtime
//! event translators apply (`tesla-automata`) and the same instance
//! semantics as the runtime store.
//!
//! Three verdicts per assertion (a small lattice, see DESIGN.md):
//!
//! * [`CheckVerdict::ProvedSafe`] — the exploration was exhaustive
//!   and no path violates. If the automaton is additionally
//!   *residual-safe* (no reachable state over non-site symbols can
//!   fail cleanup), the instrumenter may elide the assertion's hooks
//!   entirely (`elide: true`).
//! * [`CheckVerdict::DefiniteViolation`] — the exploration was
//!   exhaustive and **every** terminal path violates; a concrete
//!   counterexample event trace is attached.
//! * [`CheckVerdict::Unknown`] — anything else: the analysis bailed
//!   (indirect calls, budget, strict automata, …) or some paths
//!   violate and some don't. Dynamic instrumentation stays on.
//!
//! ## Faithfulness
//!
//! The abstract machine mirrors the deployed configuration byte for
//! byte where it matters: events fire exactly where `instrument`
//! would weave hooks (callee-side entry/exit, caller-side call
//! wrapping per the merged plan, field hooks, site rewriting);
//! translator order is automaton symbol order; instance updates copy
//! `tesla-runtime`'s store algorithm (binding compatibility,
//! specialisation clones, ignore-on-no-transition, site-must-match);
//! bound groups use the engine's lazy materialisation (an instance
//! only exists once some event statically matched); the shadow call
//! stack for `incallstack` guards is pushed before entry translators
//! and popped before exit translators, exactly as the engine does.
//!
//! Soundness caveats are handled by bailing to `Unknown`: strict
//! automata (elision could unmask residual strict violations),
//! indirect calls, unsupported bound shapes, instance counts near the
//! runtime capacity (where the runtime silently drops clones), and
//! analysis budget exhaustion. Abstract traps (division by a known
//! zero, `Unreachable`) end a path safely, exactly as the interpreter
//! halts before any further events.

use std::collections::{BTreeMap, HashMap, HashSet};
use tesla_automata::{
    Automaton, Direction, Guard, InstrSide, Manifest, StateSet, SymbolId, SymbolKind,
};
use tesla_ir::{AbsVal, CallGraph, Callee, CmpOp, FuncId, Inst, Module, Op, Terminator};
use tesla_spec::{ArgPattern, FieldOp, SourceLoc, Value};

/// Per-assertion instruction budget for the abstract exploration.
const MAX_STEPS: usize = 400_000;
/// Maximum configurations explored per assertion.
const MAX_CONFIGS: usize = 4_096;
/// Maximum fork worlds while delivering a single event.
const MAX_WORLDS: usize = 128;
/// Instance-count bail threshold: the runtime store holds up to 64
/// instances and silently drops clones past that, so verdicts near
/// the limit would not be trustworthy.
const MAX_INSTANCES: usize = 32;
/// Maximum abstract call depth.
const MAX_FRAMES: usize = 48;

/// One step of a counterexample event trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStep {
    /// The automaton symbol the event matched.
    pub sym: SymbolId,
    /// Human-readable description of the concrete abstract event.
    pub desc: String,
}

/// The model checker's verdict for one assertion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckVerdict {
    /// No explored path violates, and the exploration was exhaustive.
    ProvedSafe {
        /// May the instrumenter remove this assertion's hooks?
        /// Requires residual-safety: hooks shared with other
        /// assertions keep firing after elision, so every state
        /// reachable over non-site symbols must be cleanup-safe.
        elide: bool,
    },
    /// Every terminal path violates; a counterexample is attached.
    DefiniteViolation {
        /// Event trace of one violating path (shortest found).
        trace: Vec<TraceStep>,
    },
    /// The analysis could not decide; dynamic checking remains.
    Unknown {
        /// Why the analysis gave up (or what it observed).
        reason: String,
    },
}

impl CheckVerdict {
    /// Is this a `ProvedSafe` verdict that permits hook elision?
    pub fn elidable(&self) -> bool {
        matches!(self, CheckVerdict::ProvedSafe { elide: true })
    }
}

/// The model-checking result for one manifest assertion.
#[derive(Debug, Clone, PartialEq)]
pub struct AssertionReport {
    /// Manifest index == runtime class id.
    pub class: u32,
    /// Assertion name.
    pub name: String,
    /// Assertion source location.
    pub loc: SourceLoc,
    /// The verdict.
    pub verdict: CheckVerdict,
}

/// Model-check every assertion in `manifest` against the *linked,
/// un-instrumented* `module`.
///
/// # Errors
///
/// Returns a description of manifest compilation failures or a stale
/// manifest (an assertion in the module with no manifest entry).
pub fn model_check(module: &Module, manifest: &Manifest) -> Result<Vec<AssertionReport>, String> {
    let automata = manifest
        .compile_all()
        .map_err(|(n, e)| format!("{n}: {e}"))?;
    let plan = crate::weave_plan(&automata, &HashSet::new()).functions;
    let class_of = crate::class_ids(module, manifest)
        .map_err(|name| format!("assertion `{name}` not in manifest (stale)"))?;
    let cg = CallGraph::new(module);
    let mut reports = Vec::with_capacity(automata.len());
    for (i, auto) in automata.iter().enumerate() {
        let verdict = Checker {
            module,
            auto,
            class_idx: i as u32,
            plan: &plan,
            class_of: &class_of,
            cg: &cg,
            steps: MAX_STEPS,
            configs_spent: 0,
            worklist: Vec::new(),
            outcomes: Vec::new(),
            bail: None,
        }
        .check();
        reports.push(AssertionReport {
            class: i as u32,
            name: auto.name.clone(),
            loc: auto.loc.clone(),
            verdict,
        });
    }
    Ok(reports)
}

/// Is the automaton safe under any *residual* event stream: events
/// from hooks other assertions keep alive after this one's site
/// placeholders are removed? Site events can no longer occur, so the
/// check is that every state reachable from the start over non-site
/// symbols is cleanup-safe.
fn residual_safe(auto: &Automaton) -> bool {
    let n = auto.n_states as usize;
    let mut reach = vec![false; n];
    reach[auto.start as usize] = true;
    let mut changed = true;
    while changed {
        changed = false;
        for t in &auto.transitions {
            if t.sym != auto.site_sym && reach[t.from as usize] && !reach[t.to as usize] {
                reach[t.to as usize] = true;
                changed = true;
            }
        }
    }
    reach
        .iter()
        .enumerate()
        .all(|(s, r)| !*r || auto.cleanup_safe.contains(s as u32))
}

// ---------------------------------------------------------------------
// Abstract machine state
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
struct AbsInstance {
    states: StateSet,
    /// Variable index → bound abstract value (`None` = unbound).
    bindings: Vec<Option<AbsVal>>,
}

#[derive(Debug, Clone)]
struct Frame {
    func: usize,
    block: u32,
    ip: usize,
    regs: Vec<AbsVal>,
    /// Callee-side exit hook: emit `FnExit` with *current* params.
    exit_hook: bool,
    /// Caller-side post hook: emit `FnExit` with the saved call args.
    post_event: Option<(String, Vec<AbsVal>)>,
    /// Caller register receiving the return value.
    ret_dst: Option<u32>,
}

#[derive(Debug, Clone)]
struct Config {
    frames: Vec<Frame>,
    instances: Vec<AbsInstance>,
    next_ref: u32,
    /// `(r, c)`: `Ref(r)` is known ≠ constant `c`.
    neq_const: Vec<(u32, i64)>,
    /// Normalised `(a, b)` with `a < b`: `Ref(a)` ≠ `Ref(b)`.
    neq_ref: Vec<(u32, u32)>,
    /// Comparison results: result ref → `(op, lhs, rhs)`.
    cmp_facts: HashMap<u32, (CmpOp, AbsVal, AbsVal)>,
    /// Per-config assumption: is this guard fn executing above the
    /// bound's root frame? Fixed for the whole bound invocation.
    above_root: BTreeMap<String, bool>,
    /// Refs known to be distinct heap handles (from `New`).
    obj_refs: Vec<u32>,
    /// Has any event statically matched (lazy materialisation)?
    materialized: bool,
    trace: Vec<TraceStep>,
}

impl Config {
    fn fresh_ref(&mut self) -> u32 {
        let r = self.next_ref;
        self.next_ref += 1;
        r
    }

    fn definitely_neq(&self, a: AbsVal, b: AbsVal) -> bool {
        match (a, b) {
            (AbsVal::Const(x), AbsVal::Const(y)) => x != y,
            (AbsVal::Ref(r), AbsVal::Const(c)) | (AbsVal::Const(c), AbsVal::Ref(r)) => {
                self.neq_const.contains(&(r, c))
            }
            (AbsVal::Ref(a), AbsVal::Ref(b)) => {
                a != b && self.neq_ref.contains(&(a.min(b), a.max(b)))
            }
        }
    }
}

#[derive(Debug, Clone)]
enum EventBody {
    Fn {
        name: String,
        dir: Direction,
        args: Vec<AbsVal>,
        ret: Option<AbsVal>,
    },
    Field {
        sname: String,
        fname: String,
        op: FieldOp,
        obj: AbsVal,
        val: AbsVal,
    },
    Site {
        vals: Vec<AbsVal>,
    },
}

#[derive(Debug, Clone, Copy)]
enum Slot {
    Arg(usize),
    Ret,
    Obj,
    FieldVal,
}

fn slot_val(ev: &EventBody, s: Slot) -> AbsVal {
    match (ev, s) {
        (EventBody::Fn { args, .. }, Slot::Arg(i)) => args[i],
        (EventBody::Fn { ret, .. }, Slot::Ret) => ret.expect("ret slot on entry event"),
        (EventBody::Field { obj, .. }, Slot::Obj) => *obj,
        (EventBody::Field { val, .. }, Slot::FieldVal) => *val,
        _ => unreachable!("slot/event mismatch"),
    }
}

fn fmt_vals(vals: &[AbsVal]) -> String {
    vals.iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

fn render_event(ev: &EventBody) -> String {
    match ev {
        EventBody::Fn {
            name,
            dir: Direction::Entry,
            args,
            ..
        } => {
            format!("call {name}({})", fmt_vals(args))
        }
        EventBody::Fn {
            name,
            dir: Direction::Exit,
            args,
            ret,
        } => {
            let r = ret.map(|r| r.to_string()).unwrap_or_default();
            format!("{name}({}) returned {r}", fmt_vals(args))
        }
        EventBody::Field {
            sname,
            fname,
            op,
            obj,
            val,
        } => {
            if sname.is_empty() {
                format!("{obj}.{fname} {op} {val}")
            } else {
                format!("{sname}({obj}).{fname} {op} {val}")
            }
        }
        EventBody::Site { vals } => format!("assertion site ({})", fmt_vals(vals)),
    }
}

/// A config with its in-flight event and extracted bindings, so that
/// equality substitutions rewrite all three consistently.
#[derive(Debug, Clone)]
struct World {
    cfg: Config,
    ev: EventBody,
    binds: Vec<(usize, AbsVal)>,
}

#[derive(Debug)]
enum Outcome {
    Safe,
    Violation {
        trace: Vec<TraceStep>,
        definite: bool,
    },
}

// ---------------------------------------------------------------------
// Substitution with fact propagation
// ---------------------------------------------------------------------

fn rewrite(v: &mut AbsVal, r: u32, to: AbsVal) {
    if *v == AbsVal::Ref(r) {
        *v = to;
    }
}

/// Apply `queue` of `Ref → value` substitutions to every value the
/// world holds, propagating comparison facts. Returns `false` when a
/// contradiction proves the world infeasible.
fn run_substs(
    cfg: &mut Config,
    ev: Option<&mut EventBody>,
    binds: Option<&mut Vec<(usize, AbsVal)>>,
    clones: Option<&mut Vec<AbsInstance>>,
    mut queue: Vec<(u32, AbsVal)>,
) -> bool {
    let mut ev = ev;
    let mut binds = binds;
    let mut clones = clones;
    while let Some((r, to)) = queue.pop() {
        if to == AbsVal::Ref(r) {
            continue;
        }
        for fr in &mut cfg.frames {
            for v in &mut fr.regs {
                rewrite(v, r, to);
            }
            if let Some((_, args)) = &mut fr.post_event {
                for v in args {
                    rewrite(v, r, to);
                }
            }
        }
        for inst in &mut cfg.instances {
            for b in inst.bindings.iter_mut().flatten() {
                rewrite(b, r, to);
            }
        }
        if let Some(ev) = ev.as_deref_mut() {
            match ev {
                EventBody::Fn { args, ret, .. } => {
                    for v in args {
                        rewrite(v, r, to);
                    }
                    if let Some(v) = ret {
                        rewrite(v, r, to);
                    }
                }
                EventBody::Field { obj, val, .. } => {
                    rewrite(obj, r, to);
                    rewrite(val, r, to);
                }
                EventBody::Site { vals } => {
                    for v in vals {
                        rewrite(v, r, to);
                    }
                }
            }
        }
        if let Some(binds) = binds.as_deref_mut() {
            for (_, v) in binds.iter_mut() {
                rewrite(v, r, to);
            }
        }
        if let Some(clones) = clones.as_deref_mut() {
            for c in clones.iter_mut() {
                for b in c.bindings.iter_mut().flatten() {
                    rewrite(b, r, to);
                }
            }
        }
        // Rewrite facts about r.
        let olds: Vec<(u32, i64)> = std::mem::take(&mut cfg.neq_const);
        for (fr, fc) in olds {
            if fr == r {
                match to {
                    AbsVal::Const(c) => {
                        if c == fc {
                            return false; // r ≠ fc but r = fc
                        } // else discharged
                    }
                    AbsVal::Ref(s) => {
                        if !cfg.neq_const.contains(&(s, fc)) {
                            cfg.neq_const.push((s, fc));
                        }
                    }
                }
            } else if !cfg.neq_const.contains(&(fr, fc)) {
                cfg.neq_const.push((fr, fc));
            }
        }
        let old_nr: Vec<(u32, u32)> = std::mem::take(&mut cfg.neq_ref);
        for (a, b) in old_nr {
            if a == r || b == r {
                let other = if a == r { b } else { a };
                match to {
                    AbsVal::Const(c) => {
                        if !cfg.neq_const.contains(&(other, c)) {
                            cfg.neq_const.push((other, c));
                        }
                    }
                    AbsVal::Ref(s) => {
                        if s == other {
                            return false; // unified two known-distinct refs
                        }
                        let p = (s.min(other), s.max(other));
                        if !cfg.neq_ref.contains(&p) {
                            cfg.neq_ref.push(p);
                        }
                    }
                }
            } else if !cfg.neq_ref.contains(&(a, b)) {
                cfg.neq_ref.push((a, b));
            }
        }
        if let AbsVal::Ref(s) = to {
            if let Some(i) = cfg.obj_refs.iter().position(|&o| o == r) {
                if cfg.obj_refs.contains(&s) {
                    cfg.obj_refs.remove(i);
                } else {
                    cfg.obj_refs[i] = s;
                }
            }
        } else {
            cfg.obj_refs.retain(|&o| o != r);
        }
        // Comparison facts: rewrite operands; a substituted *result*
        // ref propagates its truth value.
        let mut propagated: Option<(CmpOp, AbsVal, AbsVal)> = None;
        let old_cf = std::mem::take(&mut cfg.cmp_facts);
        for (k, (op, mut x, mut y)) in old_cf {
            rewrite(&mut x, r, to);
            rewrite(&mut y, r, to);
            if k == r {
                match to {
                    AbsVal::Const(_) => propagated = Some((op, x, y)),
                    AbsVal::Ref(s) => {
                        cfg.cmp_facts.entry(s).or_insert((op, x, y));
                    }
                }
            } else {
                cfg.cmp_facts.insert(k, (op, x, y));
            }
        }
        if let (Some((op, x, y)), AbsVal::Const(c)) = (propagated, to) {
            if !propagate_cmp(cfg, op, x, y, c != 0, &mut queue) {
                return false;
            }
        }
    }
    true
}

/// Learn from "`x op y` is `truth`". Pushes substitutions for
/// equalities, adds disequalities, detects contradictions.
fn propagate_cmp(
    cfg: &mut Config,
    op: CmpOp,
    x: AbsVal,
    y: AbsVal,
    truth: bool,
    queue: &mut Vec<(u32, AbsVal)>,
) -> bool {
    if let (AbsVal::Const(a), AbsVal::Const(b)) = (x, y) {
        return eval_cmp(op, a, b) == truth;
    }
    let eq_known = matches!((op, truth), (CmpOp::Eq, true) | (CmpOp::Ne, false));
    let ne_known = matches!(
        (op, truth),
        (CmpOp::Eq, false)
            | (CmpOp::Ne, true)
            | (CmpOp::Lt, true)
            | (CmpOp::Gt, true)
            | (CmpOp::Le, false)
            | (CmpOp::Ge, false)
    );
    if eq_known {
        if cfg.definitely_neq(x, y) {
            return false;
        }
        match (x, y) {
            (AbsVal::Ref(r), other) | (other, AbsVal::Ref(r)) => queue.push((r, other)),
            _ => {}
        }
    } else if ne_known && !assert_neq(cfg, x, y) {
        return false;
    }
    true
}

/// Record `a ≠ b`; returns `false` when they are provably equal.
fn assert_neq(cfg: &mut Config, a: AbsVal, b: AbsVal) -> bool {
    match (a, b) {
        (AbsVal::Const(x), AbsVal::Const(y)) => x != y,
        (AbsVal::Ref(r), AbsVal::Const(c)) | (AbsVal::Const(c), AbsVal::Ref(r)) => {
            if !cfg.neq_const.contains(&(r, c)) {
                cfg.neq_const.push((r, c));
            }
            true
        }
        (AbsVal::Ref(x), AbsVal::Ref(y)) => {
            if x == y {
                return false;
            }
            let p = (x.min(y), x.max(y));
            if !cfg.neq_ref.contains(&p) {
                cfg.neq_ref.push(p);
            }
            true
        }
    }
}

fn eval_cmp(op: CmpOp, a: i64, b: i64) -> bool {
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    }
}

/// Mirror of the interpreter's `eval_bin`; `None` = division by zero
/// (the interpreter traps).
fn eval_bin(op: Op, a: i64, b: i64) -> Option<i64> {
    Some(match op {
        Op::Add => a.wrapping_add(b),
        Op::Sub => a.wrapping_sub(b),
        Op::Mul => a.wrapping_mul(b),
        Op::Div => {
            if b == 0 {
                return None;
            }
            a.wrapping_div(b)
        }
        Op::Rem => {
            if b == 0 {
                return None;
            }
            a.wrapping_rem(b)
        }
        Op::And => a & b,
        Op::Or => a | b,
        Op::Xor => a ^ b,
        Op::Shl => a.wrapping_shl(b as u32),
        Op::Shr => a.wrapping_shr(b as u32),
    })
}

// ---------------------------------------------------------------------
// The checker
// ---------------------------------------------------------------------

struct Checker<'a> {
    module: &'a Module,
    auto: &'a Automaton,
    class_idx: u32,
    plan: &'a BTreeMap<String, InstrSide>,
    class_of: &'a [u32],
    cg: &'a CallGraph,
    steps: usize,
    configs_spent: usize,
    worklist: Vec<Config>,
    outcomes: Vec<Outcome>,
    bail: Option<String>,
}

impl Checker<'_> {
    fn set_bail(&mut self, why: &str) {
        if self.bail.is_none() {
            self.bail = Some(why.to_string());
        }
    }

    fn check(&mut self) -> CheckVerdict {
        let auto = self.auto;
        if auto.strict {
            return CheckVerdict::Unknown {
                reason: "strict automaton: elision could unmask residual strict violations".into(),
            };
        }
        if auto.bound.start_dir != Direction::Entry
            || auto.bound.end_dir != Direction::Exit
            || auto.bound.start_fn != auto.bound.end_fn
        {
            return CheckVerdict::Unknown {
                reason: format!(
                    "unsupported temporal bound shape ({} entry … {} exit expected)",
                    auto.bound.start_fn, auto.bound.end_fn
                ),
            };
        }
        let start_fn = auto.bound.start_fn.clone();
        let side = match self.plan.get(&start_fn) {
            Some(s) => *s,
            None => {
                return CheckVerdict::Unknown {
                    reason: format!("bound function `{start_fn}` missing from plan"),
                }
            }
        };
        let root = match self.module.function(&start_fn) {
            Some(g) => g,
            None => {
                return if side == InstrSide::Callee {
                    // Dormant: the bound function is never defined, its
                    // entry hook never fires, the group is never
                    // entered — no event can ever reach this class.
                    CheckVerdict::ProvedSafe { elide: true }
                } else {
                    CheckVerdict::Unknown {
                        reason: format!(
                            "bound function `{start_fn}` is external with caller-side hooks"
                        ),
                    }
                };
            }
        };
        let f = &self.module.functions[root.0 as usize];
        let n_params = f.n_params as usize;
        let mut regs = vec![AbsVal::Const(0); f.n_regs as usize];
        for (i, r) in regs.iter_mut().enumerate().take(n_params) {
            *r = AbsVal::Ref(i as u32);
        }
        let params: Vec<AbsVal> = regs[..n_params].to_vec();
        let cfg = Config {
            frames: vec![Frame {
                func: root.0 as usize,
                block: 0,
                ip: 0,
                regs,
                exit_hook: side == InstrSide::Callee,
                post_event: (side == InstrSide::Caller).then(|| (start_fn.clone(), params.clone())),
                ret_dst: None,
            }],
            instances: vec![AbsInstance {
                states: auto.initial_states(),
                bindings: vec![None; auto.var_names.len()],
            }],
            next_ref: n_params as u32,
            neq_const: Vec::new(),
            neq_ref: Vec::new(),
            cmp_facts: HashMap::new(),
            above_root: BTreeMap::new(),
            obj_refs: Vec::new(),
            materialized: false,
            trace: vec![TraceStep {
                sym: auto.init_sym,
                desc: format!("«init»: enter {start_fn}({})", fmt_vals(&params)),
            }],
        };
        // The bound entry event itself runs through the translators.
        let ev = EventBody::Fn {
            name: start_fn.clone(),
            dir: Direction::Entry,
            args: params,
            ret: None,
        };
        let start = self.deliver(cfg, ev, None, &start_fn);
        self.worklist.extend(start);
        while let Some(c) = self.worklist.pop() {
            if self.bail.is_some() {
                break;
            }
            self.configs_spent += 1;
            if self.configs_spent > MAX_CONFIGS {
                self.set_bail("configuration budget exceeded");
                break;
            }
            self.exec(c);
        }
        if let Some(reason) = self.bail.take() {
            return CheckVerdict::Unknown { reason };
        }
        let total = self.outcomes.len();
        let n_safe = self
            .outcomes
            .iter()
            .filter(|o| matches!(o, Outcome::Safe))
            .count();
        let viols: Vec<&Outcome> = self
            .outcomes
            .iter()
            .filter(|o| matches!(o, Outcome::Violation { .. }))
            .collect();
        if viols.is_empty() {
            CheckVerdict::ProvedSafe {
                elide: residual_safe(auto),
            }
        } else if n_safe == 0
            && viols
                .iter()
                .all(|o| matches!(o, Outcome::Violation { definite: true, .. }))
        {
            let trace = viols
                .iter()
                .filter_map(|o| match o {
                    Outcome::Violation { trace, .. } => Some(trace),
                    Outcome::Safe => None,
                })
                .min_by_key(|t| t.len())
                .cloned()
                .unwrap_or_default();
            CheckVerdict::DefiniteViolation { trace }
        } else {
            CheckVerdict::Unknown {
                reason: format!(
                    "violation possible on {}/{total} explored paths",
                    viols.len()
                ),
            }
        }
    }

    // -- main abstract execution loop ---------------------------------

    fn exec(&mut self, mut cfg: Config) {
        loop {
            if self.bail.is_some() {
                return;
            }
            if self.steps == 0 {
                self.set_bail("step budget exceeded");
                return;
            }
            self.steps -= 1;
            let (func_idx, block, ip) = {
                let fr = cfg.frames.last().expect("no frame");
                (fr.func, fr.block as usize, fr.ip)
            };
            let f = &self.module.functions[func_idx];
            if ip < f.blocks[block].insts.len() {
                let inst = f.blocks[block].insts[ip].clone();
                cfg.frames.last_mut().expect("frame").ip += 1;
                match self.exec_inst(cfg, inst, func_idx) {
                    Some(next) => cfg = next,
                    None => return,
                }
            } else {
                let term = f.blocks[block].term.clone();
                match self.exec_term(cfg, term) {
                    Some(next) => cfg = next,
                    None => return,
                }
            }
        }
    }

    /// Execute one instruction; `None` when this path ended (terminal,
    /// violation, bail) and the caller should pull the next config.
    fn exec_inst(&mut self, mut cfg: Config, inst: Inst, func_idx: usize) -> Option<Config> {
        let reg =
            |cfg: &Config, r: tesla_ir::Reg| cfg.frames.last().expect("frame").regs[r.0 as usize];
        let set = |cfg: &mut Config, r: tesla_ir::Reg, v: AbsVal| {
            cfg.frames.last_mut().expect("frame").regs[r.0 as usize] = v;
        };
        match inst {
            Inst::Const { dst, value } => {
                set(&mut cfg, dst, AbsVal::Const(value));
                Some(cfg)
            }
            Inst::Copy { dst, src } => {
                let v = reg(&cfg, src);
                set(&mut cfg, dst, v);
                Some(cfg)
            }
            Inst::Bin { dst, op, lhs, rhs } => {
                let (a, b) = (reg(&cfg, lhs), reg(&cfg, rhs));
                let v = match (a.as_const(), b.as_const()) {
                    (Some(x), Some(y)) => match eval_bin(op, x, y) {
                        Some(v) => AbsVal::Const(v),
                        None => {
                            // Division by zero: the interpreter traps,
                            // the program ends before any more events.
                            self.outcomes.push(Outcome::Safe);
                            return None;
                        }
                    },
                    (_, Some(0)) if matches!(op, Op::Div | Op::Rem) => {
                        self.outcomes.push(Outcome::Safe);
                        return None;
                    }
                    _ => AbsVal::Ref(cfg.fresh_ref()),
                };
                set(&mut cfg, dst, v);
                Some(cfg)
            }
            Inst::Cmp { dst, op, lhs, rhs } => {
                let (a, b) = (reg(&cfg, lhs), reg(&cfg, rhs));
                let v = if let (Some(x), Some(y)) = (a.as_const(), b.as_const()) {
                    AbsVal::Const(i64::from(eval_cmp(op, x, y)))
                } else if a == b {
                    AbsVal::Const(i64::from(matches!(op, CmpOp::Eq | CmpOp::Le | CmpOp::Ge)))
                } else if cfg.definitely_neq(a, b) && matches!(op, CmpOp::Eq | CmpOp::Ne) {
                    AbsVal::Const(i64::from(op == CmpOp::Ne))
                } else {
                    let r = cfg.fresh_ref();
                    cfg.cmp_facts.insert(r, (op, a, b));
                    AbsVal::Ref(r)
                };
                set(&mut cfg, dst, v);
                Some(cfg)
            }
            Inst::FnAddr { dst, func } => {
                // Handles are 1-based, mirroring the interpreter.
                set(&mut cfg, dst, AbsVal::Const(i64::from(func.0) + 1));
                Some(cfg)
            }
            Inst::New { dst, .. } => {
                // Heap handles are 1-based and unique per allocation.
                let r = cfg.fresh_ref();
                cfg.neq_const.push((r, 0));
                for &o in cfg.obj_refs.clone().iter() {
                    assert_neq(&mut cfg, AbsVal::Ref(r), AbsVal::Ref(o));
                }
                cfg.obj_refs.push(r);
                set(&mut cfg, dst, AbsVal::Ref(r));
                Some(cfg)
            }
            Inst::Load { dst, .. } => {
                let r = cfg.fresh_ref();
                set(&mut cfg, dst, AbsVal::Ref(r));
                Some(cfg)
            }
            Inst::Store {
                obj,
                field,
                op,
                value,
            } => {
                let sname = self.module.structs[field.strct.0 as usize].name.clone();
                let fname = self.module.structs[field.strct.0 as usize].fields
                    [field.field as usize]
                    .clone();
                let ov = reg(&cfg, obj);
                let vv = reg(&cfg, value);
                let infn = self.module.functions[func_idx].name.clone();
                let ev = EventBody::Field {
                    sname,
                    fname,
                    op,
                    obj: ov,
                    val: vv,
                };
                let outs = self.deliver(cfg, ev, None, &infn);
                self.continue_with(outs)
            }
            Inst::TeslaPseudoAssert { assertion, args } => {
                if self.class_of.get(assertion as usize).copied() != Some(self.class_idx) {
                    return Some(cfg); // another class's site
                }
                let vals: Vec<AbsVal> = args.iter().map(|r| reg(&cfg, *r)).collect();
                let infn = self.module.functions[func_idx].name.clone();
                let outs = self.deliver(cfg, EventBody::Site { vals }, None, &infn);
                self.continue_with(outs)
            }
            Inst::Call { dst, callee, args } => self.exec_call(cfg, dst, callee, args),
            Inst::TeslaHookEntry { .. }
            | Inst::TeslaHookExit { .. }
            | Inst::TeslaHookCallPre { .. }
            | Inst::TeslaHookCallPost { .. }
            | Inst::TeslaHookField { .. }
            | Inst::TeslaSite { .. } => {
                self.set_bail("module is already instrumented; model-check pristine IR");
                None
            }
        }
    }

    fn exec_call(
        &mut self,
        mut cfg: Config,
        dst: Option<tesla_ir::Reg>,
        callee: Callee,
        args: Vec<tesla_ir::Reg>,
    ) -> Option<Config> {
        let (name, target): (String, Option<FuncId>) = match callee {
            Callee::Direct(g) => (self.module.functions[g.0 as usize].name.clone(), Some(g)),
            Callee::External(n) => (n, None),
            Callee::Indirect(_) => {
                self.set_bail("indirect call: targets not statically resolvable");
                return None;
            }
        };
        let side = self.plan.get(&name).copied();
        let argvals: Vec<AbsVal> = {
            let fr = cfg.frames.last().expect("frame");
            args.iter().map(|r| fr.regs[r.0 as usize]).collect()
        };
        match target {
            Some(g) => {
                if cfg.frames.len() >= MAX_FRAMES {
                    self.set_bail("call depth budget exceeded");
                    return None;
                }
                let f = &self.module.functions[g.0 as usize];
                let mut regs = vec![AbsVal::Const(0); f.n_regs as usize];
                let n = argvals.len().min(regs.len());
                regs[..n].copy_from_slice(&argvals[..n]);
                cfg.frames.push(Frame {
                    func: g.0 as usize,
                    block: 0,
                    ip: 0,
                    regs,
                    exit_hook: side == Some(InstrSide::Callee),
                    post_event: (side == Some(InstrSide::Caller))
                        .then(|| (name.clone(), argvals.clone())),
                    ret_dst: dst.map(|d| d.0),
                });
                if side.is_some() {
                    // The entry hook (either side) fires with the
                    // callee already on the shadow stack.
                    let ev = EventBody::Fn {
                        name: name.clone(),
                        dir: Direction::Entry,
                        args: argvals,
                        ret: None,
                    };
                    let outs = self.deliver(cfg, ev, None, &name);
                    self.continue_with(outs)
                } else {
                    Some(cfg)
                }
            }
            None => {
                // Undefined external: an opaque result, no body. The
                // shadow stack holds `name` only during the pre hook.
                let rv = AbsVal::Ref(cfg.fresh_ref());
                let mut configs = vec![cfg];
                if side == Some(InstrSide::Caller) {
                    let mut pre_out = Vec::new();
                    for c in configs {
                        let ev = EventBody::Fn {
                            name: name.clone(),
                            dir: Direction::Entry,
                            args: call_arg_vals(&c, &args),
                            ret: None,
                        };
                        pre_out.extend(self.deliver(c, ev, Some(&name), &name));
                    }
                    configs = pre_out;
                }
                for c in &mut configs {
                    if let Some(d) = dst {
                        c.frames.last_mut().expect("frame").regs[d.0 as usize] = rv;
                    }
                }
                if side == Some(InstrSide::Caller) {
                    let mut post_out = Vec::new();
                    for c in configs {
                        let ev = EventBody::Fn {
                            name: name.clone(),
                            dir: Direction::Exit,
                            args: call_arg_vals(&c, &args),
                            ret: Some(match dst {
                                Some(d) => c.frames.last().expect("frame").regs[d.0 as usize],
                                None => AbsVal::Const(0),
                            }),
                        };
                        post_out.extend(self.deliver(c, ev, None, &name));
                    }
                    configs = post_out;
                }
                self.continue_with(configs)
            }
        }
    }

    fn exec_term(&mut self, mut cfg: Config, term: Terminator) -> Option<Config> {
        match term {
            Terminator::Jump(b) => {
                let fr = cfg.frames.last_mut().expect("frame");
                fr.block = b.0;
                fr.ip = 0;
                Some(cfg)
            }
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                let v = cfg.frames.last().expect("frame").regs[cond.0 as usize];
                let goto = |cfg: &mut Config, b: u32| {
                    let fr = cfg.frames.last_mut().expect("frame");
                    fr.block = b;
                    fr.ip = 0;
                };
                match v {
                    AbsVal::Const(0) => {
                        goto(&mut cfg, else_bb.0);
                        Some(cfg)
                    }
                    AbsVal::Const(_) => {
                        goto(&mut cfg, then_bb.0);
                        Some(cfg)
                    }
                    AbsVal::Ref(r) => {
                        let mut outs = Vec::new();
                        // Then-world: the value is non-zero. If it is
                        // a comparison result, substitution propagates
                        // the comparison's truth into equalities.
                        let mut w_then = cfg.clone();
                        let feas_then = if w_then.cmp_facts.contains_key(&r) {
                            run_substs(&mut w_then, None, None, None, vec![(r, AbsVal::Const(1))])
                        } else {
                            assert_neq(&mut w_then, AbsVal::Ref(r), AbsVal::Const(0))
                        };
                        if feas_then {
                            goto(&mut w_then, then_bb.0);
                            outs.push(w_then);
                        }
                        let mut w_else = cfg;
                        if run_substs(&mut w_else, None, None, None, vec![(r, AbsVal::Const(0))]) {
                            goto(&mut w_else, else_bb.0);
                            outs.push(w_else);
                        }
                        self.continue_with(outs)
                    }
                }
            }
            Terminator::Unreachable => {
                // The interpreter traps: path ends before more events.
                self.outcomes.push(Outcome::Safe);
                None
            }
            Terminator::Ret(r) => {
                let frame = cfg.frames.pop().expect("frame");
                let ret_val = match r {
                    Some(r) => frame.regs[r.0 as usize],
                    None => AbsVal::Const(0),
                };
                let fname = self.module.functions[frame.func].name.clone();
                let n_params = self.module.functions[frame.func].n_params as usize;
                if let (Some(caller), Some(d)) = (cfg.frames.last_mut(), frame.ret_dst) {
                    caller.regs[d as usize] = ret_val;
                }
                let mut configs = vec![cfg];
                if frame.exit_hook {
                    // Callee-side exit hook: current parameter values.
                    let ev = EventBody::Fn {
                        name: fname.clone(),
                        dir: Direction::Exit,
                        args: frame.regs[..n_params].to_vec(),
                        ret: Some(ret_val),
                    };
                    configs = self.deliver_all(configs, &ev, &fname);
                }
                if let Some((pname, saved)) = frame.post_event {
                    // Caller-side post hook: the call-site argument
                    // registers (values as at the call).
                    let ev = EventBody::Fn {
                        name: pname.clone(),
                        dir: Direction::Exit,
                        args: saved,
                        ret: Some(ret_val),
                    };
                    configs = self.deliver_all(configs, &ev, &pname);
                }
                let root_returned = configs.first().is_some_and(|c| c.frames.is_empty());
                if root_returned {
                    for c in configs {
                        self.finalise(c);
                    }
                    None
                } else {
                    self.continue_with(configs)
                }
            }
        }
    }

    /// Take one config to continue executing inline; queue the rest.
    fn continue_with(&mut self, mut configs: Vec<Config>) -> Option<Config> {
        let next = configs.pop();
        self.worklist.extend(configs);
        next
    }

    fn deliver_all(&mut self, configs: Vec<Config>, ev: &EventBody, infn: &str) -> Vec<Config> {
        let mut out = Vec::new();
        for c in configs {
            out.extend(self.deliver(c, ev.clone(), None, infn));
        }
        out
    }

    // -- event delivery -----------------------------------------------

    /// Run an abstract event through this class's translators, in
    /// automaton symbol order, forking on every uncertain static
    /// check, binding comparison, or guard. Violating worlds are
    /// recorded as outcomes; surviving worlds are returned.
    fn deliver(
        &mut self,
        cfg: Config,
        ev: EventBody,
        extra_stack: Option<&str>,
        infn: &str,
    ) -> Vec<Config> {
        let candidates: Vec<SymbolId> = match &ev {
            EventBody::Fn { name, dir, .. } => self
                .auto
                .symbols
                .iter()
                .filter(|s| match &s.kind {
                    SymbolKind::Function {
                        name: n, direction, ..
                    } => n == name && direction == dir,
                    _ => false,
                })
                .map(|s| s.id)
                .collect(),
            EventBody::Field {
                sname, fname, op, ..
            } => self
                .auto
                .symbols
                .iter()
                .filter(|s| match &s.kind {
                    SymbolKind::FieldAssign {
                        struct_name,
                        field_name,
                        op: sop,
                        ..
                    } => {
                        field_name == fname
                            && (struct_name.is_empty() || struct_name == sname)
                            && sop == op
                    }
                    _ => false,
                })
                .map(|s| s.id)
                .collect(),
            EventBody::Site { .. } => vec![self.auto.site_sym],
        };
        if candidates.is_empty() {
            return vec![cfg];
        }
        let is_site = matches!(ev, EventBody::Site { .. });
        let mut worlds = vec![World {
            cfg,
            ev,
            binds: Vec::new(),
        }];
        for sym in candidates {
            let mut next = Vec::new();
            for w in worlds {
                for (mut w2, matched) in self.match_symbol(w, sym) {
                    if matched {
                        let desc = format!(
                            "{} ⇐ {} [in {}]",
                            self.auto.symbols[sym.0 as usize].kind,
                            render_event(&w2.ev),
                            infn
                        );
                        w2.cfg.trace.push(TraceStep { sym, desc });
                        next.extend(self.apply_sym(w2, sym, is_site, extra_stack));
                    } else {
                        w2.binds.clear();
                        next.push(w2);
                    }
                }
            }
            worlds = next;
            if worlds.len() > MAX_WORLDS {
                self.set_bail("event fork budget exceeded");
                return Vec::new();
            }
        }
        worlds.into_iter().map(|w| w.cfg).collect()
    }

    /// Static pattern matching with forking; on match, `binds` holds
    /// the extracted `(var, value)` pairs.
    fn match_symbol(&mut self, w: World, sym: SymbolId) -> Vec<(World, bool)> {
        let kind = self.auto.symbols[sym.0 as usize].kind.clone();
        let slots: Vec<(ArgPattern, Slot)> = match &kind {
            SymbolKind::Function {
                args,
                ret,
                direction,
                ..
            } => {
                let ev_args = match &w.ev {
                    EventBody::Fn { args, .. } => args.len(),
                    _ => return vec![(w, false)],
                };
                if args.len() > ev_args {
                    return vec![(w, false)]; // event carries too few args
                }
                let mut s: Vec<(ArgPattern, Slot)> = args
                    .iter()
                    .cloned()
                    .enumerate()
                    .map(|(i, p)| (p, Slot::Arg(i)))
                    .collect();
                if *direction == Direction::Exit {
                    if let Some(rp) = ret {
                        s.push((rp.clone(), Slot::Ret));
                    }
                }
                s
            }
            SymbolKind::FieldAssign { object, value, .. } => {
                vec![(object.clone(), Slot::Obj), (value.clone(), Slot::FieldVal)]
            }
            SymbolKind::Site => {
                // Site symbols always match and bind every value.
                let mut w = w;
                if let EventBody::Site { vals } = &w.ev {
                    w.binds = vals.iter().enumerate().map(|(i, v)| (i, *v)).collect();
                }
                return vec![(w, true)];
            }
            _ => return vec![(w, false)],
        };
        let mut tasks: Vec<(World, usize)> = vec![(w, 0)];
        let mut out = Vec::new();
        while let Some((mut w, i)) = tasks.pop() {
            if i == slots.len() {
                w.binds = slots
                    .iter()
                    .filter_map(|(p, s)| p.var_index().map(|vi| (vi, slot_val(&w.ev, *s))))
                    .collect();
                out.push((w, true));
                continue;
            }
            let (p, s) = &slots[i];
            let v = slot_val(&w.ev, *s);
            match p {
                ArgPattern::Any { .. } | ArgPattern::Var { .. } | ArgPattern::OutParam { .. } => {
                    tasks.push((w, i + 1));
                }
                ArgPattern::Const(cv) => {
                    let c = cv.as_i64();
                    match v {
                        AbsVal::Const(x) => {
                            if x == c {
                                tasks.push((w, i + 1));
                            } else {
                                out.push((w, false));
                            }
                        }
                        AbsVal::Ref(r) => {
                            if w.cfg.neq_const.contains(&(r, c)) {
                                out.push((w, false));
                            } else {
                                let mut weq = w.clone();
                                let World { cfg, ev, binds } = &mut weq;
                                if run_substs(
                                    cfg,
                                    Some(ev),
                                    Some(binds),
                                    None,
                                    vec![(r, AbsVal::Const(c))],
                                ) {
                                    tasks.push((weq, i + 1));
                                }
                                let mut wne = w;
                                if assert_neq(&mut wne.cfg, AbsVal::Ref(r), AbsVal::Const(c)) {
                                    out.push((wne, false));
                                }
                            }
                        }
                    }
                }
                ArgPattern::Flags(req) => match v {
                    AbsVal::Const(x) => {
                        if (x as u64) & req == *req {
                            tasks.push((w, i + 1));
                        } else {
                            out.push((w, false));
                        }
                    }
                    AbsVal::Ref(_) => {
                        // No bit-level facts in the domain: fork both
                        // ways without learning anything.
                        tasks.push((w.clone(), i + 1));
                        out.push((w, false));
                    }
                },
                ArgPattern::Bitmask(mask) => match v {
                    AbsVal::Const(x) => {
                        if (x as u64) & !mask == 0 {
                            tasks.push((w, i + 1));
                        } else {
                            out.push((w, false));
                        }
                    }
                    AbsVal::Ref(_) => {
                        tasks.push((w.clone(), i + 1));
                        out.push((w, false));
                    }
                },
            }
        }
        out
    }

    /// Resolve an `incallstack` guard in a given world:
    /// `Some(bool)` when determined, `None` when the config must fork
    /// on an above-the-root assumption.
    fn resolve_guard(&self, cfg: &Config, f: &str, extra_stack: Option<&str>) -> Option<bool> {
        if extra_stack == Some(f) {
            return Some(true);
        }
        if cfg
            .frames
            .iter()
            .any(|fr| self.module.functions[fr.func].name == f)
        {
            return Some(true);
        }
        if self.module.function(f).is_some() && self.cg.can_reach(f, &self.auto.bound.start_fn) {
            return cfg.above_root.get(f).copied();
        }
        Some(false)
    }

    /// Apply one matched symbol to all instances, mirroring the
    /// runtime store's `apply_event`.
    fn apply_sym(
        &mut self,
        mut w: World,
        sym: SymbolId,
        is_site: bool,
        extra_stack: Option<&str>,
    ) -> Vec<World> {
        w.cfg.materialized = true; // lazy materialisation on first match
                                   // Resolve every guard this symbol's transitions mention.
        let mut guard_names: Vec<String> = self
            .auto
            .transitions_on(sym)
            .filter_map(|t| t.guard.as_ref().map(|Guard::InCallStack(f)| f.clone()))
            .collect();
        guard_names.sort();
        guard_names.dedup();
        let mut resolved: Vec<(World, BTreeMap<String, bool>)> = vec![(w, BTreeMap::new())];
        for name in &guard_names {
            let mut next = Vec::new();
            for (mut w, mut map) in resolved {
                match self.resolve_guard(&w.cfg, name, extra_stack) {
                    Some(b) => {
                        map.insert(name.clone(), b);
                        next.push((w, map));
                    }
                    None => {
                        let mut w2 = w.clone();
                        let mut m2 = map.clone();
                        w2.cfg.above_root.insert(name.clone(), true);
                        m2.insert(name.clone(), true);
                        next.push((w2, m2));
                        w.cfg.above_root.insert(name.clone(), false);
                        map.insert(name.clone(), false);
                        next.push((w, map));
                    }
                }
            }
            resolved = next;
        }
        let mut out = Vec::new();
        for (w, gmap) in resolved {
            self.apply_to_instances(w, sym, is_site, &gmap, &mut out);
        }
        out
    }

    fn apply_to_instances(
        &mut self,
        w: World,
        sym: SymbolId,
        is_site: bool,
        guards: &BTreeMap<String, bool>,
        out: &mut Vec<World>,
    ) {
        struct Task {
            w: World,
            clones: Vec<AbsInstance>,
            idx: usize,
            matched: bool,
        }
        let n = w.cfg.instances.len();
        let mut tasks = vec![Task {
            w,
            clones: Vec::new(),
            idx: 0,
            matched: false,
        }];
        'tasks: while let Some(mut t) = tasks.pop() {
            while t.idx < n {
                let inst = t.w.cfg.instances[t.idx].clone();
                // Binding compatibility, forking on uncertainty.
                let mut uncertain: Option<(AbsVal, AbsVal)> = None;
                let mut incompatible = false;
                let mut specialise: Vec<(usize, AbsVal)> = Vec::new();
                for (var, val) in &t.w.binds {
                    match inst.bindings.get(*var).copied().flatten() {
                        None => specialise.push((*var, *val)),
                        Some(b) if b == *val => {}
                        Some(b) => {
                            if t.w.cfg.definitely_neq(b, *val)
                                || (b.as_const().is_some() && val.as_const().is_some())
                            {
                                incompatible = true;
                                break;
                            }
                            uncertain = Some((b, *val));
                            break;
                        }
                    }
                }
                if let Some((b, val)) = uncertain {
                    // Equal-world: unify and retry this instance.
                    let mut weq = Task {
                        w: t.w.clone(),
                        clones: t.clones.clone(),
                        idx: t.idx,
                        matched: t.matched,
                    };
                    let queue = match (b, val) {
                        (AbsVal::Ref(r), other) | (other, AbsVal::Ref(r)) => vec![(r, other)],
                        _ => unreachable!("uncertain pair must contain a ref"),
                    };
                    {
                        let World { cfg, ev, binds } = &mut weq.w;
                        if run_substs(cfg, Some(ev), Some(binds), Some(&mut weq.clones), queue) {
                            tasks.push(weq);
                        }
                    }
                    // Distinct-world: record the disequality, retry.
                    if assert_neq(&mut t.w.cfg, b, val) {
                        tasks.push(t);
                    }
                    continue 'tasks;
                }
                if incompatible {
                    t.idx += 1;
                    continue;
                }
                let next = self.auto.step(&inst.states, sym, |Guard::InCallStack(f)| {
                    guards.get(f).copied().unwrap_or(false)
                });
                if next.is_empty() {
                    // No transition: non-strict automata ignore the
                    // event for this instance (strict ones bailed).
                    t.idx += 1;
                    continue;
                }
                if specialise.is_empty() {
                    t.w.cfg.instances[t.idx].states = next;
                } else {
                    let mut clone = inst.clone();
                    for (var, val) in specialise {
                        clone.bindings[var] = Some(val);
                    }
                    clone.states = next;
                    t.clones.push(clone);
                }
                t.matched = true;
                t.idx += 1;
            }
            // Append clones, merging exact-duplicate bindings the way
            // the store dedups (union of state sets).
            for clone in t.clones {
                if let Some(ex) =
                    t.w.cfg
                        .instances
                        .iter_mut()
                        .find(|i| i.bindings == clone.bindings)
                {
                    ex.states.union_with(&clone.states);
                } else {
                    t.w.cfg.instances.push(clone);
                }
            }
            if t.w.cfg.instances.len() > MAX_INSTANCES {
                self.set_bail("instance budget exceeded (runtime capacity nearby)");
                return;
            }
            if !t.matched && is_site {
                // Site events must advance some instance (§2.3).
                let mut trace = t.w.cfg.trace.clone();
                if let Some(last) = trace.last_mut() {
                    last.desc.push_str(" — no instance can accept");
                }
                self.outcomes.push(Outcome::Violation {
                    trace,
                    definite: true,
                });
                continue; // fail-stop: path ends here
            }
            out.push(t.w);
        }
    }

    /// The bound's root frame returned: run «cleanup» finalisation.
    fn finalise(&mut self, cfg: Config) {
        if !cfg.materialized {
            // Lazy mode: never materialised, never finalised.
            self.outcomes.push(Outcome::Safe);
            return;
        }
        let failing: Vec<usize> = (0..cfg.instances.len())
            .filter(|&i| !self.auto.finalise_ok(&cfg.instances[i].states))
            .collect();
        if failing.is_empty() {
            self.outcomes.push(Outcome::Safe);
            return;
        }
        // A cleanup violation is *definite* only if no failing
        // instance could be the runtime-merged twin of a passing one
        // (the store dedups clones with equal bindings).
        let passing: Vec<usize> = (0..cfg.instances.len())
            .filter(|&i| self.auto.finalise_ok(&cfg.instances[i].states))
            .collect();
        let definite = failing.iter().all(|&f| {
            passing.iter().all(|&p| {
                let (a, b) = (&cfg.instances[f], &cfg.instances[p]);
                let mask_differs = a
                    .bindings
                    .iter()
                    .zip(&b.bindings)
                    .any(|(x, y)| x.is_some() != y.is_some());
                mask_differs
                    || a.bindings
                        .iter()
                        .zip(&b.bindings)
                        .any(|(x, y)| match (x, y) {
                            (Some(x), Some(y)) => cfg.definitely_neq(*x, *y),
                            _ => false,
                        })
            })
        });
        let mut trace = cfg.trace.clone();
        let inst = &cfg.instances[failing[0]];
        let bound: Vec<String> = inst
            .bindings
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                b.map(|v| {
                    format!(
                        "{}={v}",
                        self.auto.var_names.get(i).cloned().unwrap_or_default()
                    )
                })
            })
            .collect();
        trace.push(TraceStep {
            sym: self.auto.cleanup_sym,
            desc: format!(
                "«cleanup»: {} returned with unmet obligation ({})",
                self.auto.bound.start_fn,
                if bound.is_empty() {
                    "no bindings".to_string()
                } else {
                    bound.join(", ")
                }
            ),
        });
        self.outcomes.push(Outcome::Violation { trace, definite });
    }
}

fn call_arg_vals(cfg: &Config, args: &[tesla_ir::Reg]) -> Vec<AbsVal> {
    let fr = cfg.frames.last().expect("frame");
    args.iter().map(|r| fr.regs[r.0 as usize]).collect()
}

fn _assert_value_roundtrip(v: Value) -> i64 {
    v.as_i64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tesla_automata::Manifest;
    use tesla_ir::Module;

    fn build(srcs: &[(&str, &str)]) -> (Module, Manifest) {
        let mut modules = Vec::new();
        let mut manifests = Vec::new();
        for (src, file) in srcs {
            let out = tesla_cc::compile_unit(src, file).unwrap();
            modules.push(out.module);
            manifests.push(out.manifest);
        }
        let linked = Module::link(modules, "prog").unwrap();
        (linked, Manifest::merge(&manifests))
    }

    fn verdict_of(srcs: &[(&str, &str)]) -> CheckVerdict {
        let (m, manifest) = build(srcs);
        let reports = model_check(&m, &manifest).unwrap();
        assert_eq!(reports.len(), 1, "expected a single assertion");
        reports[0].verdict.clone()
    }

    const PATCHED_SSL: &str = "int EVP_VerifyFinal(int ctx, int sig, int len, int key) {\n\
             if (len < 4) { return -1; }\n\
             if (sig == key) { return 1; }\n\
             return 0;\n\
         }\n\
         int page_in(int rc) { return rc; }\n\
         int ssl_main(int sig, int key) {\n\
             int ctx = 77;\n\
             int rc = EVP_VerifyFinal(ctx, sig, 8, key);\n\
             if (rc != 1) { return -1; }\n\
             int page = page_in(rc);\n\
             TESLA_WITHIN(ssl_main, previously(\n\
                 EVP_VerifyFinal(ANY(ptr), ANY(int), ANY(int), ANY(int)) == 1));\n\
             return page;\n\
         }";

    const BUGGY_SSL: &str = "int EVP_VerifyFinal(int ctx, int sig, int len, int key) {\n\
             if (len < 4) { return -1; }\n\
             if (sig == key) { return 1; }\n\
             return 0;\n\
         }\n\
         int ssl_main(int sig, int key) {\n\
             int ctx = 77;\n\
             int page = 7;\n\
             TESLA_WITHIN(ssl_main, previously(\n\
                 EVP_VerifyFinal(ANY(ptr), ANY(int), ANY(int), ANY(int)) == 1));\n\
             return page;\n\
         }";

    #[test]
    fn patched_openssl_flow_is_proved_safe_and_elidable() {
        let v = verdict_of(&[(PATCHED_SSL, "ssl.c")]);
        assert_eq!(v, CheckVerdict::ProvedSafe { elide: true }, "got {v:?}");
    }

    #[test]
    fn never_verified_flow_is_definite_violation_with_trace() {
        let v = verdict_of(&[(BUGGY_SSL, "ssl.c")]);
        match v {
            CheckVerdict::DefiniteViolation { trace } => {
                assert!(trace.iter().any(|s| s.desc.contains("«init»")), "{trace:?}");
                assert!(
                    trace
                        .iter()
                        .any(|s| s.desc.contains("no instance can accept")),
                    "{trace:?}"
                );
            }
            other => panic!("expected DefiniteViolation, got {other:?}"),
        }
    }

    #[test]
    fn conditionally_verified_flow_is_unknown() {
        let src = "int check(int x) { return 1; }\n\
             int cond_main(int x) {\n\
                 if (x) { check(x); }\n\
                 TESLA_WITHIN(cond_main, previously(check(ANY(int)) == 1));\n\
                 return 0;\n\
             }";
        match verdict_of(&[(src, "cond.c")]) {
            CheckVerdict::Unknown { reason } => {
                assert!(reason.contains("possible"), "{reason}");
            }
            other => panic!("expected Unknown, got {other:?}"),
        }
    }

    #[test]
    fn kernel_mac_check_flow_is_proved_safe() {
        let src = "struct socket { int so_state; };\n\
             int mac_socket_check_poll(int cred, struct socket *so) { return 0; }\n\
             int sopoll_generic(int cred, struct socket *so) {\n\
                 TESLA_SYSCALL_PREVIOUSLY(mac_socket_check_poll(ANY(int), so) == 0);\n\
                 return 1;\n\
             }\n\
             int amd64_syscall(int cred, struct socket *so) {\n\
                 mac_socket_check_poll(cred, so);\n\
                 return sopoll_generic(cred, so);\n\
             }";
        let v = verdict_of(&[(src, "kern.c")]);
        assert!(matches!(v, CheckVerdict::ProvedSafe { .. }), "got {v:?}");
    }

    #[test]
    fn dormant_bound_function_is_elidable() {
        let src = "int ghost_entry(int x);\n\
             int real_main(int x) {\n\
                 TESLA_WITHIN(ghost_entry, previously(real_main(ANY(int)) == 0));\n\
                 return 0;\n\
             }";
        let v = verdict_of(&[(src, "ghost.c")]);
        assert_eq!(v, CheckVerdict::ProvedSafe { elide: true }, "got {v:?}");
    }

    #[test]
    fn cross_unit_linking_preserves_verdicts() {
        let unit_a = "int validate(int t) { if (t == 0) { return 0; } return 1; }\n\
             int handle(int t) {\n\
                 int ok = validate(t);\n\
                 if (ok != 1) { return -1; }\n\
                 TESLA_WITHIN(handle, previously(validate(ANY(int)) == 1));\n\
                 return 0;\n\
             }";
        let unit_b = "int handle(int t);\n\
             int driver(int t) { return handle(t); }";
        let v = verdict_of(&[(unit_a, "a.c"), (unit_b, "b.c")]);
        assert!(matches!(v, CheckVerdict::ProvedSafe { .. }), "got {v:?}");
    }

    #[test]
    fn residual_safe_rejects_nothing_on_simple_previously() {
        let (m, manifest) = build(&[(PATCHED_SSL, "ssl.c")]);
        let autos = manifest.compile_all().unwrap();
        assert!(residual_safe(&autos[0]));
        let _ = m;
    }

    #[test]
    fn reports_cover_every_manifest_entry() {
        let (m, manifest) = build(&[(PATCHED_SSL, "ssl.c")]);
        let reports = model_check(&m, &manifest).unwrap();
        assert_eq!(reports.len(), manifest.entries.len());
        assert_eq!(reports[0].class, 0);
        assert!(!reports[0].name.is_empty());
    }
}
