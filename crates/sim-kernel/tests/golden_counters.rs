//! Golden metrics counters of the telemetered kernel, and the
//! allocations a telemetered registration makes.
//!
//! The benchmark's telemetered workloads run with the engine's
//! registry on and no handler attached, so the registry is fed only
//! by the store step. This file pins what that path counts: the
//! fig. 11b OLTP transactions under all 96 assertions and the three
//! seeded bugs, each rendered with `export::json_counters` (which
//! leaves out the timings) and compared byte for byte with
//! `tests/golden/counters.txt`.
//!
//! Regenerate after an intended change with
//! `TESLA_BLESS=1 cargo test -p tesla-sim-kernel --test golden_counters`
//! and review the diff.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations_during;
use std::fmt::Write as _;
use std::sync::Arc;
use tesla_automata::compile;
use tesla_runtime::telemetry::export;
use tesla_runtime::{Config, FailMode, InitMode, Tesla};
use tesla_sim_kernel::assertions::{register_sets, AssertionSet};
use tesla_sim_kernel::mac::MacFramework;
use tesla_sim_kernel::types::{oflags, Fd, Pid};
use tesla_sim_kernel::{Bugs, Kernel, KernelConfig};
use tesla_spec::{call, AssertionBuilder, ExprBuilder};

fn check_golden(name: &str, actual: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("TESLA_BLESS").is_some() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    if want != actual {
        let line = want
            .lines()
            .zip(actual.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| want.lines().count().min(actual.lines().count()));
        panic!(
            "{name} drifted from its golden file at line {}:\n  want: {:?}\n  got:  {:?}",
            line + 1,
            want.lines().nth(line),
            actual.lines().nth(line)
        );
    }
}

/// A telemetered kernel with no handler attached.
fn boot(sets: &[AssertionSet], bugs: Bugs, fail_mode: FailMode) -> (Kernel, Arc<Tesla>) {
    let tesla = Arc::new(Tesla::new(Config {
        fail_mode,
        init_mode: InitMode::Lazy,
        telemetry: true,
        ..Config::default()
    }));
    let reg = register_sets(&tesla, sets).unwrap();
    let k = Kernel::new(
        KernelConfig {
            bugs,
            debug_checks: false,
        },
        MacFramework::new(),
        Some((tesla.clone(), reg.sites)),
    );
    (k, tesla)
}

fn render(out: &mut String, case: &str, t: &Tesla) {
    writeln!(out, "## {case}").unwrap();
    out.push_str(&export::json_counters(&t.metrics().snapshot()));
    for v in t.violations() {
        writeln!(out, "violation {} {:?}", v.assertion, v.kind).unwrap();
    }
}

/// One transaction of the fig. 11b OLTP workload: three socket
/// round-trips and a table read, committing when asked.
fn oltp_txn(k: &Kernel, me: Pid, cli: Fd, srv: Fd, commit: bool) {
    for _ in 0..3 {
        k.sys_send(me, cli, b"q").unwrap();
        k.sys_recv(me, srv).unwrap();
        k.sys_poll(me, cli).unwrap();
    }
    let fd = k.sys_open(me, "/db/table", oflags::O_RDONLY).unwrap();
    k.sys_read(me, fd, 32).unwrap();
    if commit {
        k.sys_write(me, fd, b"commit").unwrap();
    }
    k.sys_close(me, fd).unwrap();
}

#[test]
fn telemetered_counters_match_golden() {
    let mut out = String::new();

    // Eight OLTP transactions, every fourth committing.
    let (k, t) = boot(&[AssertionSet::All], Bugs::default(), FailMode::FailStop);
    k.mkdir_p("/db", 0).unwrap();
    k.mkfile("/db/table", &[0u8; 256], 0, false).unwrap();
    let me = k.sys_fork(k.init_pid()).unwrap();
    let (cli, srv) = k.socketpair(me).unwrap();
    for txn in 0..8 {
        oltp_txn(&k, me, cli, srv, txn % 4 == 0);
    }
    assert!(t.violations().is_empty());
    render(&mut out, "oltp", &t);

    // kqueue skips mac_socket_check_poll (MS set, kevent path).
    let bugs = Bugs {
        kqueue_skips_mac_poll: true,
        ..Bugs::default()
    };
    let (k, t) = boot(&[AssertionSet::MS], bugs, FailMode::Log);
    let init = k.init_pid();
    let (cli, _srv) = k.socketpair(init).unwrap();
    k.sys_poll(init, cli).unwrap();
    k.sys_kevent(init, cli).unwrap();
    render(&mut out, "kqueue_skips_mac_poll", &t);

    // select passes the cached file_cred (MS set, forked child).
    let bugs = Bugs {
        poll_passes_file_cred: true,
        ..Bugs::default()
    };
    let (k, t) = boot(&[AssertionSet::MS], bugs, FailMode::Log);
    let init = k.init_pid();
    let (cli, _srv) = k.socketpair(init).unwrap();
    let child = k.sys_fork(init).unwrap();
    k.sys_select(child, &[cli]).unwrap();
    render(&mut out, "poll_passes_file_cred", &t);

    // setuid forgets P_SUGID (MP set).
    let bugs = Bugs {
        setuid_skips_sugid: true,
        ..Bugs::default()
    };
    let (k, t) = boot(&[AssertionSet::MP], bugs, FailMode::Log);
    k.sys_setuid(k.init_pid(), 0).unwrap();
    render(&mut out, "setuid_skips_sugid", &t);

    check_golden("counters.txt", &out);
}

const CLASSES: u64 = 1024;

/// Heap allocations of one `register_batch` of [`CLASSES`] classes of
/// four shapes.
fn registration_allocations(telemetry: bool) -> u64 {
    let shapes = [
        AssertionBuilder::syscall().previously(call("check").arg_var("x").returns(0)),
        AssertionBuilder::syscall().previously(
            ExprBuilder::from(call("a").returns(0))
                .or(call("b").returns(0))
                .or(call("c").returns(0)),
        ),
        AssertionBuilder::within("main").previously(
            ExprBuilder::from(call("x").returns(0))
                .then(call("y").returns(0))
                .or(ExprBuilder::from(call("z").returns(0))),
        ),
        AssertionBuilder::syscall().eventually(call("audit").arg_var("p").returns(0)),
    ];
    let automata: Vec<_> = (0..CLASSES as usize)
        .map(|i| compile(&shapes[i % shapes.len()].clone().build().unwrap()).unwrap())
        .collect();
    let t = Tesla::new(Config {
        telemetry,
        ..Config::default()
    });
    allocations_during(|| {
        t.register_batch(automata).unwrap();
    })
}

/// A telemetered registration reuses each class's runtime DFA for its
/// weight table: no second subset construction and no second
/// `StateSet → row` index. What telemetry adds per class is the
/// table's cells and `Arc`, and the class's counters and name: four
/// allocations, where the table's own DFA and index made it 8.5.
#[test]
fn telemetered_registration_allocates_no_second_dfa() {
    let off = registration_allocations(false);
    let on = registration_allocations(true);
    let per_class = |n: u64| n as f64 / CLASSES as f64;
    eprintln!(
        "allocations per class: {:.2} with telemetry off, {:.2} with it on",
        per_class(off),
        per_class(on)
    );
    assert!(
        on - off <= 4 * CLASSES,
        "telemetry adds {:.2} allocations per class",
        per_class(on - off)
    );
}
