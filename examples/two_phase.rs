//! Watch the two-phase pipeline: the same loop run cold-only vs with
//! hot promotion, showing the cold instrumentation paying off in the
//! hot phase (paper §2 and the "hot code is 3x better" observation).
//!
//! ```text
//! cargo run --release --example two_phase
//! ```

use btgeneric::engine::{Config, Outcome};
use btgeneric::stats::TimeDistribution;
use btlib::{Process, SimOs};
use ia32::asm::{Asm, Image};
use ia32::inst::{Addr, AluOp, ShiftOp};
use ia32::regs::{EAX, EBX, ECX, EDI, ESI};

fn build() -> Image {
    let mut a = Asm::new(0x40_0000);
    a.mov_ri(ESI, 0x50_0000);
    a.mov_ri(ECX, 200_000);
    a.mov_ri(EDI, 0);
    let top = a.label();
    a.bind(top);
    a.mov_rr(EAX, ECX);
    a.alu_ri(AluOp::And, EAX, 0xFFF);
    a.mov_load(EBX, Addr::base_index(ESI, EAX, 4, 0));
    a.alu_rr(AluOp::Add, EDI, EBX);
    a.shift_i(ShiftOp::Shl, EDI, 1);
    a.alu_ri(AluOp::Xor, EDI, 0x55);
    a.mov_store(Addr::base_index(ESI, EAX, 4, 0), EDI);
    a.dec(ECX);
    a.jcc(ia32::Cond::Ne, top);
    a.hlt();
    Image::from_asm(&a).with_bss(0x50_0000, 0x1_0000)
}

fn run(cfg: Config) -> (u64, TimeDistribution, u64, String) {
    let mut p = Process::launch_with(&build(), SimOs::new(), cfg).expect("launch");
    match p.run(u64::MAX / 2) {
        Outcome::Halted(_) => {}
        other => panic!("unexpected outcome {other:?}"),
    }
    let dist = TimeDistribution::from_region_cycles(&p.engine.machine.region_cycles);
    // Show the translated code of the hottest block.
    let dump = p
        .engine
        .blocks()
        .iter()
        .find(|b| b.kind == btgeneric::engine::BlockKind::Hot)
        .map(|b| p.engine.disassemble_block(b.id))
        .unwrap_or_default();
    (dist.total(), dist, p.engine.stats.hot_traces, dump)
}

fn main() {
    let cold_only = Config {
        heat_threshold: 0,
        ..Config::default()
    };
    let two_phase = Config {
        heat_threshold: 1024,
        hot_candidates: 1,
        ..Config::default()
    };
    let (cold_cycles, _, _, _) = run(cold_only);
    let (hot_cycles, dist, traces, dump) = run(two_phase);
    let (h, c, o, ot, _, _) = dist.percentages();
    println!("cold-only:  {cold_cycles} simulated cycles");
    println!("two-phase:  {hot_cycles} simulated cycles ({traces} hot traces)");
    println!("speedup:    {:.2}x", cold_cycles as f64 / hot_cycles as f64);
    println!("time split: hot {h:.1}% / cold {c:.1}% / overhead {o:.1}% / other {ot:.1}%");
    println!();
    println!("hot trace (first 12 bundles):");
    for line in dump.lines().take(13) {
        println!("{line}");
    }
    assert!(hot_cycles < cold_cycles);
}
