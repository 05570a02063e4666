//! Cross-commit equivalence oracle for the simulated numbers.
//!
//! The engine and the `ipf` cycle model are deterministic, so a change
//! that only restructures code (or only makes the simulator itself
//! faster) must leave every simulated statistic *exactly* as it was.
//! This test runs the 15 kernels (12 SPEC-INT-like + eon/vcall_mono/
//! callret) at a small fixed scale under the default `Config` and
//! compares machine cycles, slot count, per-region cycles, the native
//! baseline's cycles and the full `Stats` debug rendering against
//! `tests/golden/sim_golden.txt`, which was generated on the commit
//! *before* the change under test.
//!
//! A deliberate cycle-model or translator change regenerates the file:
//! on mismatch the test writes what it measured next to the test
//! binary's scratch directory and names the path in its panic message;
//! copy that over the golden file and say why in the commit.

use btgeneric::engine::{Config, Outcome};
use btlib::{Process, SimOs};
use std::fmt::Write as _;
use workloads::harness::{build_image, run_native};

const GOLDEN: &str = include_str!("golden/sim_golden.txt");

fn measure() -> String {
    let mut kernels = workloads::spec_int();
    kernels.extend(workloads::indirect_kernels());
    assert_eq!(kernels.len(), 15, "the suite covers all 15 kernels");
    let mut out = String::new();
    for w in &kernels {
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
        let native = run_native(w, scale, ipf::Timing::default());
        writeln!(out, "== {} scale={scale}", w.name).unwrap();
        writeln!(
            out,
            "cycles={} insts={} native_cycles={}",
            m.cycles, m.inst_count, native.cycles
        )
        .unwrap();
        writeln!(out, "regions={regions:?}").unwrap();
        writeln!(out, "stats={:?}", p.engine.stats).unwrap();
    }
    out
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
