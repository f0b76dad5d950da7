//! # tesla-sim-kernel — a FreeBSD-like kernel substrate for TESLA
//!
//! The paper's second case study (§3.5.2) annotates the FreeBSD
//! kernel with 84+ temporal assertions over the MAC framework and
//! inter-process security. This crate is the DESIGN.md substitution
//! for that kernel: a compact but structurally faithful simulator
//! with
//!
//! * processes, immutable credentials (`Ucred` with pointer-like
//!   identity), fork/exec/exit/wait, signals, ptrace, scheduling,
//!   cpusets, POSIX-RT knobs and a procfs-like facility;
//! * a VFS layer over a UFS-like filesystem (directories, regular
//!   files, extended attributes, ACLs stored *in* extended
//!   attributes, and the internal `vn_rdwr(IO_NOMACCHECK)` path of
//!   fig. 7);
//! * a socket layer with the full indirection chain of fig. 3
//!   (`fo_poll → soo_poll → sopoll → pru_sopoll → sopoll_generic`)
//!   behind function pointers;
//! * the MAC framework of [`mac`] with pluggable policies;
//! * syscall dispatch whose entry/exit are the `amd64_syscall`
//!   temporal bound of fig. 9, plus a `trap_pfault` path whose I/O is
//!   bounded separately (§3.5.2);
//! * the paper's seeded bugs behind [`Bugs`] flags: the kqueue path
//!   that misses `mac_socket_check_poll`, the dynamic call graph that
//!   passes the cached `file_cred` instead of `active_cred`, and a
//!   `setuid` that forgets to set `P_SUGID`;
//! * the table-1 assertion sets (96 assertions across MF/MS/MP/M/P)
//!   in [`assertions`], with every assertion site wired into the
//!   corresponding kernel code path.
//!
//! The kernel runs with or without TESLA: a `Kernel` built without an
//! engine is the "Release" configuration; with an engine but no
//! registered assertion sets it is "Infrastructure"; with sets it is
//! the instrumented kernel of fig. 11.
//!
//! Hook points name their check function and assertion site with the
//! typed ids [`CheckFn`] and [`SiteKey`]. [`Kernel::new`] resolves them
//! once, at boot, into arrays of interned names and of class lists, as
//! the paper's instrumenter binds each hook to its translator at build
//! time (§4.2): an event pays an array index, never a name lookup.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assertions;
pub mod fs;
pub mod mac;
pub mod proc;
pub mod scenario;
pub mod socket;
pub mod state;
pub mod types;

use mac::{MacFramework, MacObject};
use state::State;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use tesla_runtime::{ClassId, NameId, Tesla};
use tesla_spec::{FieldOp, Value};
use types::{KError, KResult, Pid, Ucred};

pub use assertions::{AssertionSet, CheckFn, SiteKey, SiteMap};
pub use types::{Errno, Fd, SockId, VnodeId};

/// Seeded bugs from §3.5.2, each individually toggleable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Bugs {
    /// The kqueue path does not invoke `mac_socket_check_poll` — the
    /// real bug TESLA found ("was being invoked for the select and
    /// poll system calls, but not kqueue").
    pub kqueue_skips_mac_poll: bool,
    /// One dynamic call graph passes the cached `file_cred` down
    /// instead of `active_cred` ("authorisation performed using the
    /// credential that created the associated file or socket").
    pub poll_passes_file_cred: bool,
    /// `setuid` forgets to set `P_SUGID` — violates the `eventually`
    /// side-effect assertion.
    pub setuid_skips_sugid: bool,
}

/// Kernel configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelConfig {
    /// Seeded bugs.
    pub bugs: Bugs,
    /// Simulate the cost of classic debug aids (WITNESS/INVARIANTS):
    /// per-syscall invariant sweeps (fig. 11's "Debug" bars).
    pub debug_checks: bool,
}

/// Pre-interned hook names — the callee-side instrumentation set the
/// TESLA instrumenter would produce for the registered assertions.
struct HookIds {
    amd64_syscall: NameId,
    trap_pfault: NameId,
    vn_rdwr: NameId,
    ufs_readdir: NameId,
    /// `struct proc` and its `p_flag` field, for the P_SUGID store.
    proc_struct: NameId,
    p_flag: NameId,
    /// Indexed by [`CheckFn`].
    checks: [NameId; CheckFn::COUNT],
}

/// The TESLA attachment: engine, hook ids and, indexed by
/// [`SiteKey`], the classes anchored at each assertion site.
struct TeslaCtx {
    engine: Arc<Tesla>,
    ids: HookIds,
    sites: [Box<[ClassId]>; SiteKey::COUNT],
}

/// The simulated kernel.
pub struct Kernel {
    tesla: Option<TeslaCtx>,
    mac_fw: Arc<MacFramework>,
    cfg: KernelConfig,
    pub(crate) state: Mutex<State>,
    next_cred_id: AtomicU64,
    /// Debug-mode invariant sweep accumulator (prevents the work
    /// being optimised away).
    debug_sink: AtomicU64,
}

impl Kernel {
    /// Boot a kernel. `tesla` attaches a libtesla engine with the
    /// sites previously registered via
    /// [`assertions::register_sets`]; `None` is the Release
    /// configuration.
    ///
    /// Boot resolves every [`CheckFn`] to its interned name, in
    /// [`CheckFn::ALL`] order, and every [`SiteKey`] to the classes
    /// `sites` lists under its name, in their order. Keys of `sites`
    /// that no [`SiteKey`] names are never reached, so they are
    /// dropped.
    pub fn new(
        cfg: KernelConfig,
        mac_fw: MacFramework,
        tesla: Option<(Arc<Tesla>, SiteMap)>,
    ) -> Kernel {
        let tesla = tesla.map(|(engine, sites)| {
            let checks = std::array::from_fn(|i| engine.intern_fn(CheckFn::ALL[i].name()));
            let ids = HookIds {
                amd64_syscall: engine.intern_fn("amd64_syscall"),
                trap_pfault: engine.intern_fn("trap_pfault"),
                vn_rdwr: engine.intern_fn("vn_rdwr"),
                ufs_readdir: engine.intern_fn("ufs_readdir"),
                proc_struct: engine.intern_struct("proc"),
                p_flag: engine.intern_field("p_flag"),
                checks,
            };
            let sites = std::array::from_fn(|i| {
                sites
                    .get(SiteKey::ALL[i].name())
                    .map_or_else(Box::default, |classes| classes.as_slice().into())
            });
            TeslaCtx { engine, ids, sites }
        });
        let k = Kernel {
            tesla,
            mac_fw: Arc::new(mac_fw),
            cfg,
            state: Mutex::new(State::boot()),
            next_cred_id: AtomicU64::new(100),
            debug_sink: AtomicU64::new(0),
        };
        let init_cred = k.fresh_cred(0, 0, 10);
        k.lock_state().spawn_init(init_cred);
        k
    }

    /// Boot with no MAC policies and no TESLA (pure Release).
    pub fn release(cfg: KernelConfig) -> Kernel {
        Kernel::new(cfg, MacFramework::new(), None)
    }

    /// The configuration.
    pub fn config(&self) -> &KernelConfig {
        &self.cfg
    }

    /// Mint a fresh immutable credential.
    pub fn fresh_cred(&self, uid: u32, gid: u32, label: i32) -> Ucred {
        Ucred {
            id: self.next_cred_id.fetch_add(1, Ordering::Relaxed),
            uid,
            gid,
            label,
        }
    }

    // --------------------------------------------------------------
    // TESLA plumbing
    // --------------------------------------------------------------

    #[inline]
    fn t(&self) -> Option<&TeslaCtx> {
        self.tesla.as_ref()
    }

    /// Run `f` inside the `amd64_syscall` temporal bound. The exit
    /// hook always runs (even when `f` fail-stops) so bound scopes
    /// stay balanced.
    pub(crate) fn with_syscall<T>(&self, pid: Pid, f: impl FnOnce() -> KResult<T>) -> KResult<T> {
        let args = [Value::from(pid)];
        if let Some(t) = self.t() {
            t.engine.fn_entry(t.ids.amd64_syscall, &args)?;
        }
        if self.cfg.debug_checks {
            self.debug_sweep();
        }
        let r = f();
        let exit = match self.t() {
            Some(t) => {
                let rv = match &r {
                    Ok(_) => Value(0),
                    Err(KError::Errno(e)) => Value::from_i64(*e as i64),
                    Err(KError::Tesla(_)) => Value(0),
                };
                t.engine
                    .fn_exit(t.ids.amd64_syscall, &args, rv)
                    .map_err(KError::from)
            }
            None => Ok(()),
        };
        match (r, exit) {
            (Err(e), _) => Err(e),
            (Ok(_), Err(e)) => Err(e),
            (Ok(v), Ok(())) => Ok(v),
        }
    }

    /// Run `f` inside the `trap_pfault` bound (§3.5.2's page-fault
    /// I/O path).
    pub(crate) fn with_pfault<T>(&self, pid: Pid, f: impl FnOnce() -> KResult<T>) -> KResult<T> {
        let args = [Value::from(pid)];
        if let Some(t) = self.t() {
            t.engine.fn_entry(t.ids.trap_pfault, &args)?;
        }
        let r = f();
        let exit = match self.t() {
            Some(t) => t
                .engine
                .fn_exit(t.ids.trap_pfault, &args, Value(0))
                .map_err(KError::from),
            None => Ok(()),
        };
        match (r, exit) {
            (Err(e), _) => Err(e),
            (Ok(_), Err(e)) => Err(e),
            (Ok(v), Ok(())) => Ok(v),
        }
    }

    /// Invoke a `mac_*_check_*` function: the framework hook of §2,
    /// instrumented callee-side. Returns 0 (allow) or an error code.
    pub(crate) fn mac_check(
        &self,
        check_fn: CheckFn,
        op: &'static str,
        cred: &Ucred,
        obj_val: Value,
        obj: &MacObject,
        extra: &[Value],
    ) -> KResult<i64> {
        let mut args = [Value(0); 4];
        args[0] = cred.value();
        args[1] = obj_val;
        let mut n = 2;
        for e in extra.iter().take(2) {
            args[n] = *e;
            n += 1;
        }
        let args = &args[..n];
        if let Some(t) = self.t() {
            let id = t.ids.checks[check_fn as usize];
            t.engine.fn_entry(id, args)?;
            let r = self.mac_fw.check(op, cred, obj);
            t.engine.fn_exit(id, args, Value::from_i64(r))?;
            Ok(r)
        } else {
            Ok(self.mac_fw.check(op, cred, obj))
        }
    }

    /// A `p_can*`/`cr_cansee` inter-process wrapper (hooked) around
    /// the optional inner MAC check (also hooked) — the two-layer
    /// authorisation structure FreeBSD uses for inter-process
    /// operations.
    pub(crate) fn p_can(
        &self,
        can_fn: CheckFn,
        mac_fn: Option<CheckFn>,
        op: &'static str,
        cred: &Ucred,
        obj_val: Value,
        obj: &MacObject,
    ) -> KResult<i64> {
        let args = [cred.value(), obj_val];
        if let Some(t) = self.t() {
            t.engine.fn_entry(t.ids.checks[can_fn as usize], &args)?;
        }
        let r = match mac_fn {
            Some(m) => self.mac_check(m, op, cred, obj_val, obj, &[])?,
            None => self.mac_fw.check(op, cred, obj),
        };
        if let Some(t) = self.t() {
            t.engine
                .fn_exit(t.ids.checks[can_fn as usize], &args, Value::from_i64(r))?;
        }
        Ok(r)
    }

    /// Like [`Kernel::mac_check`] but turns a denial into `EACCES`.
    pub(crate) fn mac_require(
        &self,
        check_fn: CheckFn,
        op: &'static str,
        cred: &Ucred,
        obj_val: Value,
        obj: &MacObject,
        extra: &[Value],
    ) -> KResult<()> {
        if self.mac_check(check_fn, op, cred, obj_val, obj, extra)? != 0 {
            Err(types::Errno::EACCES.into())
        } else {
            Ok(())
        }
    }

    /// Reach a TESLA assertion site (every class registered under
    /// `key`; classes whose bound is not active ignore it).
    pub(crate) fn site(&self, key: SiteKey, vals: &[Value]) -> KResult<()> {
        if let Some(t) = self.t() {
            for &c in t.sites[key as usize].iter() {
                t.engine.assertion_site(c, vals)?;
            }
        }
        Ok(())
    }

    /// The `vn_rdwr` internal-I/O hook pair (fig. 7).
    pub(crate) fn hook_vn_rdwr<T>(
        &self,
        vp: Value,
        ioflg: u64,
        f: impl FnOnce() -> KResult<T>,
    ) -> KResult<T> {
        let args = [vp, Value(ioflg)];
        if let Some(t) = self.t() {
            t.engine.fn_entry(t.ids.vn_rdwr, &args)?;
        }
        let r = f()?;
        if let Some(t) = self.t() {
            t.engine.fn_exit(t.ids.vn_rdwr, &args, Value(0))?;
        }
        Ok(r)
    }

    /// The `ufs_readdir` hook pair — maintained for the
    /// `incallstack(ufs_readdir)` guard (fig. 7).
    pub(crate) fn hook_ufs_readdir<T>(
        &self,
        vp: Value,
        f: impl FnOnce() -> KResult<T>,
    ) -> KResult<T> {
        let args = [vp];
        if let Some(t) = self.t() {
            t.engine.fn_entry(t.ids.ufs_readdir, &args)?;
        }
        let r = f();
        if let Some(t) = self.t() {
            t.engine.fn_exit(t.ids.ufs_readdir, &args, Value(0))?;
        }
        r
    }

    /// Report a `p_flag` field store to TESLA (the instrumented
    /// `p->p_flag |= P_SUGID` of §3.5.2).
    pub(crate) fn hook_pflag_store(&self, pid: Pid, op: FieldOp, value: u64) -> KResult<()> {
        if let Some(t) = self.t() {
            t.engine.field_store(
                t.ids.proc_struct,
                t.ids.p_flag,
                Value::from(pid),
                op,
                Value(value),
            )?;
        }
        Ok(())
    }

    /// A WITNESS/INVARIANTS-style debug sweep: walk kernel tables and
    /// fold a checksum (models the accepted cost of classic dynamic
    /// debugging aids, fig. 11).
    fn debug_sweep(&self) {
        let st = self.lock_state();
        let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
        for p in st.procs.values() {
            acc ^= u64::from(p.pid.0) ^ p.cred.id ^ p.p_flag;
            acc = acc.wrapping_mul(0x100_0000_01b3);
            for fd in p.fds.iter().flatten() {
                acc ^= fd.file_cred.id;
                acc = acc.wrapping_mul(0x100_0000_01b3);
            }
        }
        for v in &st.vnodes {
            acc ^= v.data.len() as u64 ^ u64::from(v.nlink);
            acc = acc.wrapping_mul(0x100_0000_01b3);
        }
        self.debug_sink.fetch_xor(acc, Ordering::Relaxed);
    }

    /// Look up a process's credential.
    pub fn cred_of(&self, pid: Pid) -> KResult<Ucred> {
        let st = self.lock_state();
        st.procs
            .get(&pid)
            .map(|p| p.cred)
            .ok_or_else(|| KError::from(types::Errno::ESRCH))
    }

    /// The init process.
    pub fn init_pid(&self) -> Pid {
        Pid(1)
    }

    /// Direct state access for tests and workload setup (e.g. forging
    /// credentials). Not part of the syscall surface.
    pub fn state_for_tests(&self) -> MutexGuard<'_, State> {
        self.lock_state()
    }

    /// Lock the kernel state, poisoned or not (DESIGN.md §6.1). No
    /// TESLA hook runs with the lock held, so a violation cannot
    /// poison it; if a panic ever does, later syscalls carry on with
    /// the state it left, as a kernel's other threads would.
    pub(crate) fn lock_state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}
