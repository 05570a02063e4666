//! Cross-commit equivalence oracle for the simulated numbers.
//!
//! The engine and the `ipf` cycle model are deterministic, so a change
//! that only restructures code (or only makes the simulator itself
//! faster) must leave every simulated statistic *exactly* as it was.
//! This test runs the 15 kernels (12 SPEC-INT-like + eon/vcall_mono/
//! callret) at a small fixed scale under the default `Config` and
//! compares machine cycles, slot count, per-region cycles and their
//! split (issue, stall, bubble and charged cycles, which must sum to the
//! region's cycles, and nop slots), the native
//! baseline's cycles and the full `Stats` debug rendering against
//! `tests/golden/sim_golden.txt`, which was generated on the commit
//! *before* the change under test. The same 15 kernels then run under
//! the seeded fault storm (`FaultPlan::storm`, seeds 11/22/33) with the
//! chaos configuration `bench` uses, so the recovery ladder's numbers
//! are pinned across commits too, not merely compared with themselves.
//!
//! A deliberate cycle-model or translator change regenerates the file:
//! on mismatch the test writes what it measured next to the test
//! binary's scratch directory and names the path in its panic message;
//! copy that over the golden file and say why in the commit.

use btgeneric::chaos::FaultPlan;
use btgeneric::engine::{Config, Outcome};
use btlib::{Process, SimOs, SimOsFaults};
use std::fmt::Write as _;
use std::sync::OnceLock;
use workloads::harness::{build_image, run_native};

const GOLDEN: &str = include_str!("golden/sim_golden.txt");

fn kernels() -> Vec<workloads::Workload> {
    let mut kernels = workloads::spec_int();
    kernels.extend(workloads::indirect_kernels());
    assert_eq!(kernels.len(), 15, "the suite covers all 15 kernels");
    kernels
}

/// What one default-`Config` run of a kernel measured.
struct KernelRun {
    name: &'static str,
    /// The kernel's lines of the golden file.
    golden: String,
    /// Slots the machine retired in groups issued from a summary.
    summary_slots: u64,
    /// Slots the machine retired.
    slots: u64,
    /// The hot side exits and devirtualization-guard failures the exit
    /// blocks' taps counted, and the branches into exit blocks a debug
    /// build tapped in the trace bodies.
    #[cfg(debug_assertions)]
    exits: (u64, u64),
}

/// The 15 kernels under the default `Config`, run once for all the
/// tests of this file.
fn kernel_runs() -> &'static [KernelRun] {
    static RUNS: OnceLock<Vec<KernelRun>> = OnceLock::new();
    RUNS.get_or_init(|| kernels().iter().map(run_kernel).collect())
}

fn run_kernel(w: &workloads::Workload) -> KernelRun {
    let scale = (w.scale / 8).max(2048);
    let img = build_image(w, scale);
    let mut p = Process::launch_with(&img, SimOs::new(), Config::default()).expect("launch");
    match p.run(u64::MAX / 2) {
        Outcome::Halted(_) => {}
        other => panic!("{}: did not halt: {other:?}", w.name),
    }
    let m = &p.engine.machine;
    let mut regions: Vec<(u32, u64)> = m.region_cycles.iter().map(|(&r, &c)| (r, c)).collect();
    regions.sort_unstable();
    assert_eq!(
        regions.iter().map(|&(_, c)| c).sum::<u64>(),
        m.cycles,
        "{}: region cycles must sum to total cycles",
        w.name
    );
    // Per region: issue, stall, bubble and charged cycles, nop slots.
    let split: Vec<(u32, [u64; 5])> = regions
        .iter()
        .map(|&(r, cycles)| {
            let s = m.region_split[&r];
            assert_eq!(
                s.cycles(),
                cycles,
                "{}: region {r}'s split must sum to its cycles",
                w.name
            );
            let row = [
                s.issue_cycles,
                s.stall_cycles,
                s.bubble_cycles,
                s.charged_cycles,
                s.nop_slots,
            ];
            (r, row)
        })
        .collect();
    let native = run_native(w, scale, ipf::Timing::default());
    let mut golden = String::new();
    writeln!(golden, "== {} scale={scale}", w.name).unwrap();
    writeln!(
        golden,
        "cycles={} insts={} native_cycles={}",
        m.cycles, m.inst_count, native.cycles
    )
    .unwrap();
    writeln!(golden, "regions={regions:?}").unwrap();
    writeln!(golden, "split={split:?}").unwrap();
    writeln!(golden, "stats={:?}", p.engine.stats).unwrap();
    let (summary_slots, slots) = (m.summary_slots, m.inst_count);
    p.engine.collect_hot_exit_stats();
    #[cfg(debug_assertions)]
    let exits = {
        let s = &p.engine.stats;
        let tapped = s.hot_side_exits + s.devirt_guard_fails;
        (tapped, p.engine.exit_block_entries())
    };
    KernelRun {
        name: w.name,
        golden,
        summary_slots,
        slots,
        #[cfg(debug_assertions)]
        exits,
    }
}

fn measure() -> String {
    let mut out: String = kernel_runs()
        .iter()
        .map(|run| run.golden.as_str())
        .collect();
    measure_chaos(&mut out);
    out
}

/// The 15 kernels x 3 storm seeds: hot promotion on a short fuse,
/// integrity checking armed, the hot optimizer under its watchdog —
/// `bench`'s chaos configuration, at its chaos-suite scale.
fn measure_chaos(out: &mut String) {
    let cfg = Config {
        heat_threshold: 64,
        hot_candidates: 1,
        verify_on_dispatch: true,
        hot_session_budget: 400_000,
        ..Config::default()
    };
    for w in &kernels() {
        let scale = (w.scale / 400).max(512);
        let img = build_image(w, scale);
        for seed in [11u64, 22, 33] {
            let plan = FaultPlan::storm(seed);
            let os = SimOs::with_faults(SimOsFaults {
                fail_allocs: plan.os_alloc_failures,
                fail_syscalls: 0,
            });
            let mut p = Process::launch_with(&img, os, cfg.clone()).expect("launch");
            p.engine.chaos = Some(plan);
            match p.run(u64::MAX / 2) {
                Outcome::Halted(_) => {}
                other => panic!("{} seed {seed}: storm run did not halt: {other:?}", w.name),
            }
            let m = &p.engine.machine;
            let result = p.engine.mem.read(workloads::RESULT as u64, 8).unwrap_or(0);
            let injected = p
                .engine
                .chaos
                .as_ref()
                .expect("plan stays attached")
                .injected;
            writeln!(out, "== chaos {} seed={seed} scale={scale}", w.name).unwrap();
            writeln!(
                out,
                "cycles={} insts={} result={result:#x} injected={injected:?}",
                m.cycles, m.inst_count
            )
            .unwrap();
            writeln!(out, "stats={:?}", p.engine.stats).unwrap();
        }
    }
}

#[test]
fn simulated_numbers_match_the_checked_in_golden() {
    let got = measure();
    if got == GOLDEN {
        return;
    }
    let actual = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("sim_golden.actual.txt");
    std::fs::write(&actual, &got).expect("write actual");
    let first = got
        .lines()
        .zip(GOLDEN.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| got.lines().count().min(GOLDEN.lines().count()));
    panic!(
        "simulated numbers differ from tests/golden/sim_golden.txt (first at line {}):\n  \
         got:    {}\n  golden: {}\nfull measurement written to {}",
        first + 1,
        got.lines().nth(first).unwrap_or("<eof>"),
        GOLDEN.lines().nth(first).unwrap_or("<eof>"),
        actual.display()
    );
}

/// The machine accounts a whole issue group in one step from a summary
/// cached in the arena, and slot by slot only where it must (a group cut
/// short by a side exit, a fault or the slot limit, or too big for a
/// summary). The two give the same cycles, so nothing above would notice
/// the fast path not firing; this does.
#[test]
fn nearly_every_slot_retires_through_a_group_summary() {
    let (mut summarized, mut all) = (0, 0);
    for run in kernel_runs() {
        assert!(
            run.summary_slots * 10 >= run.slots * 9,
            "{}: only {} of {} slots retired through group summaries",
            run.name,
            run.summary_slots,
            run.slots
        );
        summarized += run.summary_slots;
        all += run.slots;
    }
    assert!(
        summarized * 100 >= all * 99,
        "only {summarized} of {all} slots retired through group summaries"
    );
}

/// On every kernel, the exit blocks' taps count each entry of an exit
/// block: the hot side exits and devirtualization-guard failures they
/// count equal the branches into exit blocks that a debug build taps
/// where the trace bodies leave.
#[cfg(debug_assertions)]
#[test]
fn exit_taps_count_every_exit_block_entry() {
    for run in kernel_runs() {
        let (tapped, entered) = run.exits;
        assert_eq!(
            tapped, entered,
            "{}: exit taps against exit-block entries",
            run.name
        );
    }
    let taken: u64 = kernel_runs().iter().map(|r| r.exits.0).sum();
    assert!(taken > 0, "no kernel left a hot trace early");
}
