//! Automata instance storage (§4.4.1).
//!
//! Each store (one global, one per thread) holds, for every automaton
//! class, a *preallocated, fixed-capacity* table of instances. An
//! instance is one automaton [`State`] plus a partial variable→value
//! binding; the instance "name" of the paper — `(∗)`, `(vp₁)`, … — is
//! exactly that binding. The state is a row of the class's [`Dfa`]
//! when it has one, and an NFA state set otherwise; debug builds step
//! the NFA beside every DFA step and check that the two agree.
//!
//! The lifecycle:
//!
//! * **Init** — entering the temporal bound creates the unnamed `(∗)`
//!   instance (eagerly in naive mode; lazily on the class's first
//!   event in optimised mode, §5.2.2).
//! * **Clone** — an event that binds a variable the instance does not
//!   know *clones* it: the original stays general, the clone is
//!   specialised (`(∗)` → `(vp₁)` in state 2, fig. 9).
//! * **Update** — an event whose bindings agree with the instance
//!   moves its state in place.
//! * **Error** — an assertion-site event that no instance can take is
//!   a violation.
//! * **Cleanup** — leaving the bound finalises every instance:
//!   acceptance if its NFA states intersect the cleanup-safe set,
//!   violation otherwise; then the table is expunged.

use crate::engine::{ClassDef, EvictionPolicy, DEGRADED_SAMPLE};
use crate::event::{LifecycleEvent, Violation, ViolationKind};
use crate::faults::FaultKind;
use crate::handlers::Dispatch;
use crate::MAX_VARS;
use tesla_automata::{Dfa, Guard, StateSet, SymbolId};
use tesla_spec::Value;

/// Where an instance is in its automaton.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum State {
    /// A row of the class's [`Dfa`], standing for the NFA states
    /// `dfa.states[row]`.
    Row(u32),
    /// NFA states, stepped by the interpreter: the class has no DFA
    /// ([`Dfa::build`] refused it), or a dedup union reached a set the
    /// DFA does not have.
    Set(StateSet),
}

impl State {
    /// The NFA states this stands for, given the class's DFA.
    ///
    /// # Panics
    ///
    /// On a row of a class without a DFA: rows only come from one.
    pub fn nfa(self, dfa: Option<&Dfa>) -> StateSet {
        match self {
            State::Row(row) => dfa.expect("a row comes from the class's DFA").states[row as usize],
            State::Set(set) => set,
        }
    }
}

/// One automaton instance: a state plus a partial binding.
#[derive(Debug, Clone, Copy)]
pub struct Instance {
    /// Current state.
    pub state: State,
    /// Variable values; only slots with the corresponding `known` bit
    /// set are meaningful.
    pub bindings: [Value; MAX_VARS],
    /// Bitmask of bound variables.
    pub known: u8,
    /// Store tick of the last event that touched this instance —
    /// the recency key for LRU eviction under
    /// [`crate::Config::max_instances`].
    pub touch: u64,
}

impl Instance {
    /// The unnamed `(∗)` instance in the automaton's start state.
    pub fn unnamed(start: State) -> Instance {
        Instance {
            state: start,
            bindings: [Value::NULL; MAX_VARS],
            known: 0,
            touch: 0,
        }
    }

    /// The instance's "name" for diagnostics: `(∗)` or `(v₀=3, v₂=7)`.
    pub fn name(&self, var_names: &[String]) -> String {
        if self.known == 0 {
            return "(∗)".to_string();
        }
        let mut parts = Vec::new();
        for (i, name) in var_names.iter().enumerate() {
            if self.known & (1 << i) != 0 {
                parts.push(format!("{name}={}", self.bindings[i]));
            }
        }
        format!("({})", parts.join(", "))
    }

    /// Bound values in variable order (unknown slots omitted).
    pub fn known_values(&self) -> Vec<Value> {
        (0..MAX_VARS)
            .filter(|i| self.known & (1 << i) != 0)
            .map(|i| self.bindings[i])
            .collect()
    }
}

/// Per-class state within one store.
#[derive(Debug, Default)]
pub struct ClassState {
    /// Live instances (preallocated to the class capacity on first
    /// use; cleared, not shrunk, at cleanup).
    pub instances: Vec<Instance>,
    /// The bound epoch this class was last materialised in (lazy
    /// initialisation, §5.2.2). 0 = never.
    pub epoch: u64,
    /// Degraded mode: set when the quota evicted an instance this
    /// epoch; a sampled share of further clones is shed and site
    /// misses are suppressed (they may be eviction artefacts). Reset
    /// at materialisation and finalisation.
    pub degraded: bool,
    /// Degraded-mode clone counter driving the 1-in-[`DEGRADED_SAMPLE`]
    /// shed decision.
    pub shed_tick: u32,
}

/// Per-bound-group scope state within one store.
#[derive(Debug, Default)]
pub struct GroupState {
    /// Bound nesting depth (recursive bound functions).
    pub depth: u32,
    /// Monotonic epoch; bumped at every outermost bound entry.
    pub epoch: u64,
    /// Classes materialised this epoch (lazy mode): only these need
    /// finalisation at cleanup.
    pub materialized: Vec<u32>,
}

/// All automata state for one context (global, or one thread).
#[derive(Debug, Default)]
pub struct Store {
    /// Indexed by class id.
    pub classes: Vec<ClassState>,
    /// Indexed by group id.
    pub groups: Vec<GroupState>,
    /// Monotonic event clock; stamps [`Instance::touch`].
    pub tick: u64,
    /// Scratch list of the clones one [`Store::apply_event`] creates,
    /// as `(source slot, source state before the event, instance)`.
    /// Owned by the store so that steady-state events reuse its
    /// allocation.
    clones: Vec<(u32, State, Instance)>,
}

/// What `apply_event` observed.
#[derive(Debug, Default)]
pub struct ApplyOutcome {
    /// At least one instance took the transition (in place or via
    /// clone).
    pub matched: bool,
    /// A violation, if one was detected.
    pub violation: Option<Violation>,
}

impl Store {
    /// Grow to cover `n_classes` classes and `n_groups` groups.
    pub fn ensure(&mut self, n_classes: usize, n_groups: usize) {
        if self.classes.len() < n_classes {
            self.classes.resize_with(n_classes, ClassState::default);
        }
        if self.groups.len() < n_groups {
            self.groups.resize_with(n_groups, GroupState::default);
        }
    }

    /// Create the `(∗)` instance for `class` if it has not been
    /// materialised in the current epoch of its bound group.
    /// Returns `true` if an instance was created.
    pub fn materialize(&mut self, class: u32, def: &ClassDef, d: &Dispatch<'_>) -> bool {
        let epoch = self.groups[def.group as usize].epoch;
        let tick = self.tick;
        let cs = &mut self.classes[class as usize];
        if cs.epoch == epoch {
            return false;
        }
        // Instances surviving from an earlier epoch that was never
        // finalised (unbalanced bound exit, a dropped bound-end event,
        // or a fail-stop that abandoned the scope) must not leak into
        // the new epoch. They are *reclaimed*, not silently dropped:
        // each emits an `Evicted` event so the live-instance gauge
        // stays exact — the quota property ("live never exceeds
        // `max_instances`") has to survive abandoned scopes too.
        if !cs.instances.is_empty() {
            for slot in 0..cs.instances.len() {
                d.notify(&LifecycleEvent::Evicted {
                    class,
                    instance: slot as u32,
                });
            }
            cs.instances.clear();
        }
        if let Some(fp) = d.faults() {
            if fp.draw(FaultKind::AllocFailure) {
                // Allocation denied: report it as an overflow (the
                // §4.4.1 "adjust preallocation" signal) and leave the
                // class unmaterialised — the epoch is not recorded,
                // so the next event retries.
                fp.absorbed(FaultKind::AllocFailure);
                d.metrics().note_fault_absorbed();
                d.notify(&LifecycleEvent::Overflow { class });
                return false;
            }
        }
        cs.epoch = epoch;
        cs.degraded = false;
        cs.shed_tick = 0;
        if cs.instances.capacity() < def.capacity {
            cs.instances
                .reserve_exact(def.capacity - cs.instances.capacity());
        }
        let slot = cs.instances.len() as u32;
        let start = match def.compiled.as_deref() {
            Some(dfa) => State::Row(dfa.start),
            None => State::Set(def.automaton.initial_states()),
        };
        let mut star = Instance::unnamed(start);
        star.touch = tick;
        cs.instances.push(star);
        self.groups[def.group as usize].materialized.push(class);
        // Events are built once and shared by every handler: handler
        // count must scale at the cost of a virtual call, not of
        // re-materialising payloads.
        d.notify(&LifecycleEvent::New {
            class,
            instance: slot,
        });
        true
    }

    /// Deliver one symbol occurrence to `class` with the event's
    /// dynamic bindings, implementing the clone-on-specialise
    /// semantics. `is_site` marks assertion-site events, whose failure
    /// to match is a violation.
    #[allow(clippy::too_many_arguments)]
    pub fn apply_event(
        &mut self,
        class: u32,
        def: &ClassDef,
        sym: SymbolId,
        bindings: &[(usize, Value)],
        is_site: bool,
        guard_ok: &mut dyn FnMut(&Guard) -> bool,
        d: &Dispatch<'_>,
    ) -> ApplyOutcome {
        let auto = &def.automaton;
        let dfa = def.compiled.as_deref();
        self.tick += 1;
        let tick = self.tick;
        let cs = &mut self.classes[class as usize];
        let mut out = ApplyOutcome::default();
        // Clones created this event. The buffer is borrowed beside
        // `cs`, never moved out, so no exit can drop its allocation;
        // it is cleared first because an event that unwound (a
        // recovered poisoned shard) may have left entries behind.
        let clones = &mut self.clones;
        clones.clear();
        let n = cs.instances.len();
        for i in 0..n {
            let inst = cs.instances[i];
            // Binding compatibility: known variables must agree;
            // unknown ones specialise.
            let mut specialise_known: u8 = 0;
            let mut specialise_vals = [Value::NULL; MAX_VARS];
            let mut compatible = true;
            for &(var, val) in bindings {
                debug_assert!(var < MAX_VARS);
                let bit = 1u8 << var;
                if inst.known & bit != 0 {
                    if inst.bindings[var] != val {
                        compatible = false;
                        break;
                    }
                } else {
                    specialise_known |= bit;
                    specialise_vals[var] = val;
                }
            }
            if !compatible {
                continue;
            }
            // A row steps with one table load instead of the
            // per-symbol transition-list walk; `Dfa::build` made the
            // table with exactly `auto.step` over a guard-free
            // automaton.
            let next = match inst.state {
                State::Row(row) => {
                    let dfa = dfa.expect("a row comes from the class's DFA");
                    let next = dfa.next(row, sym);
                    #[cfg(debug_assertions)]
                    shadow_check(class, auto, dfa, row, sym, next, &mut *guard_ok);
                    next.map(State::Row)
                }
                State::Set(set) => {
                    let next = auto.step(&set, sym, &mut *guard_ok);
                    (!next.is_empty()).then_some(State::Set(next))
                }
            };
            let Some(next) = next else {
                if auto.strict && !is_site {
                    let v = def.violation(
                        ViolationKind::Strict,
                        inst.known_values(),
                        format!(
                            "instance {} has no transition on {}",
                            inst.name(&auto.var_names),
                            auto.symbols[sym.0 as usize].kind
                        ),
                    );
                    d.notify(&LifecycleEvent::Error {
                        violation: v.clone(),
                    });
                    out.violation = Some(v);
                    // Stop delivering the event, but fall through to
                    // commit clones already queued by earlier
                    // instances: in Log mode the caller continues, and
                    // those specialisations must survive for later
                    // events.
                    break;
                }
                // Irrelevant at this instance's progress: ignore.
                continue;
            };
            if specialise_known == 0 {
                cs.instances[i].state = next;
                cs.instances[i].touch = tick;
                out.matched = true;
                // The governor may sample these hot-path notifications
                // (observation only: the state advance above already
                // happened and is never shed).
                if d.admits_update() {
                    d.notify(&LifecycleEvent::Update {
                        class,
                        instance: i as u32,
                        sym,
                        from_states: inst.state.nfa(dfa),
                        to_states: next.nfa(dfa),
                    });
                }
            } else {
                let mut clone = inst;
                clone.known |= specialise_known;
                for (v, &val) in specialise_vals.iter().enumerate() {
                    if specialise_known & (1 << v) != 0 {
                        clone.bindings[v] = val;
                    }
                }
                clone.state = next;
                clone.touch = tick;
                out.matched = true;
                // The source's state goes with the clone: an earlier
                // clone of this event may evict the source's slot.
                clones.push((i as u32, inst.state, clone));
            }
        }
        // The effective instance bound: the governance quota, if set,
        // never exceeds the preallocation capacity.
        let limit = def.quota.map_or(def.capacity, |q| q.min(def.capacity));
        for (src, src_state, clone) in clones.drain(..) {
            // Shed a sampled share of new specialisations — bounded
            // work in exchange for bounded memory (degraded mode) or a
            // held overhead SLO (governor with `allow_shed`). Each
            // source draws its own sampler: degraded mode phases per
            // scope epoch (unchanged quota semantics), while the
            // governor's phase rolls across scope generations so a
            // one-clone-per-scope workload still sheds its share.
            // In-place updates above are never shed, so the instances
            // we keep are tracked exactly.
            if cs.degraded {
                cs.shed_tick = cs.shed_tick.wrapping_add(1);
                if cs.shed_tick.is_multiple_of(DEGRADED_SAMPLE) {
                    d.notify(&LifecycleEvent::Shed { class });
                    continue;
                }
            }
            if d.shed_clone() {
                d.notify(&LifecycleEvent::Shed { class });
                continue;
            }
            // Deduplicate: an instance with identical bindings may
            // already exist (e.g. the same check ran twice); merge
            // state sets instead of duplicating.
            if let Some(j) = cs
                .instances
                .iter()
                .position(|e| e.known == clone.known && same_bindings(e, &clone))
            {
                let from = cs.instances[j].state.nfa(dfa);
                let mut to = from;
                to.union_with(&clone.state.nfa(dfa));
                // The union may be a set the DFA never reached: the
                // instance then steps the NFA until a later union
                // resolves to a row again.
                cs.instances[j].state = dfa
                    .and_then(|dfa| dfa.resolve(&to))
                    .map_or(State::Set(to), State::Row);
                cs.instances[j].touch = tick;
                if from != to && !d.is_empty() {
                    d.notify(&LifecycleEvent::Update {
                        class,
                        instance: j as u32,
                        sym,
                        from_states: from,
                        to_states: to,
                    });
                }
            } else if cs.instances.len() < limit {
                let slot = cs.instances.len() as u32;
                cs.instances.push(clone);
                if !d.is_empty() {
                    // A clone is also a consumed transition: report it
                    // for coverage/weighted graphs.
                    let states = clone.state.nfa(dfa);
                    d.notify(&LifecycleEvent::Clone {
                        class,
                        from_instance: src,
                        to_instance: slot,
                        states,
                    });
                    d.notify(&LifecycleEvent::Update {
                        class,
                        instance: slot,
                        sym,
                        from_states: src_state.nfa(dfa),
                        to_states: states,
                    });
                }
            } else if def.eviction == EvictionPolicy::Lru {
                // Quota full: evict the least-recently-touched
                // instance and take its slot. Evict *before*
                // reporting the clone so the live gauge never reads
                // above the quota.
                let j = (0..cs.instances.len())
                    .min_by_key(|&i| cs.instances[i].touch)
                    .expect("limit >= 1 implies a live instance");
                cs.instances[j] = clone;
                cs.degraded = true;
                d.notify(&LifecycleEvent::Evicted {
                    class,
                    instance: j as u32,
                });
                if !d.is_empty() {
                    let states = clone.state.nfa(dfa);
                    d.notify(&LifecycleEvent::Clone {
                        class,
                        from_instance: src,
                        to_instance: j as u32,
                        states,
                    });
                    d.notify(&LifecycleEvent::Update {
                        class,
                        instance: j as u32,
                        sym,
                        from_states: src_state.nfa(dfa),
                        to_states: states,
                    });
                }
            } else {
                d.notify(&LifecycleEvent::Overflow { class });
            }
        }
        if !out.matched && is_site && out.violation.is_none() {
            if cs.degraded || d.governed_shed() != 0 {
                // The matching instance may have been evicted or its
                // clone shed (by degraded mode or the governor): a
                // site miss while shedding is not evidence of a bug.
                // Count the suppressed check as shed work instead of
                // reporting a false positive.
                d.notify(&LifecycleEvent::Shed { class });
                return out;
            }
            let values: Vec<Value> = bindings.iter().map(|(_, v)| *v).collect();
            let v = def.violation(
                ViolationKind::Site,
                values.clone(),
                format!(
                    "assertion site reached with ({}) but no automaton instance can accept it",
                    describe_bindings(&auto.var_names, bindings)
                ),
            );
            d.notify(&LifecycleEvent::Error {
                violation: v.clone(),
            });
            out.violation = Some(v);
        }
        out
    }

    /// Finalise and expunge every instance of `class` («cleanup»).
    /// Returns the first cleanup violation, if any.
    pub fn finalise_class(
        &mut self,
        class: u32,
        def: &ClassDef,
        d: &Dispatch<'_>,
    ) -> Option<Violation> {
        let auto = &def.automaton;
        let dfa = def.compiled.as_deref();
        let cs = &mut self.classes[class as usize];
        let mut violation = None;
        for (i, inst) in cs.instances.iter().enumerate() {
            let accepted = auto.finalise_ok(&inst.state.nfa(dfa));
            d.notify(&LifecycleEvent::Finalise {
                class,
                instance: i as u32,
                accepted,
            });
            if !accepted && violation.is_none() {
                let v = def.violation(
                    ViolationKind::Cleanup,
                    inst.known_values(),
                    format!(
                        "instance {} finalised with a pending obligation",
                        inst.name(&auto.var_names)
                    ),
                );
                d.notify(&LifecycleEvent::Error {
                    violation: v.clone(),
                });
                violation = Some(v);
            }
        }
        cs.instances.clear();
        cs.epoch = 0;
        cs.degraded = false;
        cs.shed_tick = 0;
        violation
    }

    /// Live instance count for a class (tests, introspection).
    pub fn live_instances(&self, class: u32) -> usize {
        self.classes
            .get(class as usize)
            .map(|c| c.instances.len())
            .unwrap_or(0)
    }
}

/// Debug builds check every DFA step against the NFA it stands for:
/// stepped from the row's NFA states, the NFA must reach the
/// successor row's states, or nothing where the row dies.
#[cfg(debug_assertions)]
fn shadow_check(
    class: u32,
    auto: &tesla_automata::Automaton,
    dfa: &Dfa,
    row: u32,
    sym: SymbolId,
    next: Option<u32>,
    guard_ok: &mut dyn FnMut(&Guard) -> bool,
) {
    let nfa = auto.step(&dfa.states[row as usize], sym, guard_ok);
    let reached = next.map_or(StateSet::EMPTY, |n| dfa.states[n as usize]);
    assert!(
        nfa == reached,
        "DFA step disagrees with the NFA: class {class} ({}), row {row}, symbol {} ({}): \
         the DFA reached {reached:?}, the NFA {nfa:?}",
        auto.name,
        sym.0,
        auto.symbols[sym.0 as usize].kind,
    );
}

fn same_bindings(a: &Instance, b: &Instance) -> bool {
    for v in 0..MAX_VARS {
        if b.known & (1 << v) != 0 && a.bindings[v] != b.bindings[v] {
            return false;
        }
    }
    true
}

fn describe_bindings(var_names: &[String], bindings: &[(usize, Value)]) -> String {
    bindings
        .iter()
        .map(|(i, v)| {
            let name = var_names.get(*i).map(String::as_str).unwrap_or("?");
            format!("{name}={v}")
        })
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unnamed_instance_has_star_name() {
        let i = Instance::unnamed(State::Set(StateSet::singleton(0)));
        assert_eq!(i.name(&["so".into()]), "(∗)");
    }

    #[test]
    fn named_instance_lists_bindings() {
        let mut i = Instance::unnamed(State::Row(1));
        i.known = 0b101;
        i.bindings[0] = Value(7);
        i.bindings[2] = Value(9);
        assert_eq!(i.name(&["a".into(), "b".into(), "c".into()]), "(a=7, c=9)");
        assert_eq!(i.known_values(), vec![Value(7), Value(9)]);
    }

    // Full store behaviour is exercised through the engine tests,
    // which own ClassDef construction.
}
