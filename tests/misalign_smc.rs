//! Misalignment (paper §5's three-stage scheme) and self-modifying-code
//! tests.

use ia32::asm::{Asm, Image};
use ia32::inst::*;
use ia32::regs::*;
use ia32::Cond;
use ia32el::testkit::{cold_config, differential, hot_config, run_translated};

const DATA: u32 = 0x50_0000;

fn image(f: impl FnOnce(&mut Asm)) -> Image {
    let mut a = Asm::new(0x40_0000);
    f(&mut a);
    Image::from_asm(&a).with_bss(DATA, 0x2_0000)
}

/// A loop doing misaligned 4-byte accesses.
fn misaligned_loop(a: &mut Asm, iters: i32) {
    a.mov_ri(ESI, (DATA + 1) as i32); // misaligned base
    a.mov_ri(ECX, iters);
    a.mov_ri(EAX, 0);
    let top = a.label();
    a.bind(top);
    a.mov_store(Addr::base(ESI), ECX);
    a.alu_rm(AluOp::Add, EAX, Addr::base(ESI));
    a.alu_ri(AluOp::Add, ESI, 5); // stays misaligned, varying low bits
    a.cmp_ri(ESI, (DATA + 0x8000) as i32);
    let nowrap = a.label();
    a.jcc(Cond::L, nowrap);
    a.mov_ri(ESI, (DATA + 1) as i32);
    a.bind(nowrap);
    a.dec(ECX);
    a.jcc(Cond::Ne, top);
    a.mov_store(Addr::abs(DATA + 0x10000), EAX);
    a.hlt();
}

#[test]
fn misaligned_accesses_match_oracle() {
    let img = image(|a| misaligned_loop(a, 300));
    differential(&img, cold_config(), &[(DATA, 0x100)], "misalign/cold");
    differential(&img, hot_config(), &[(DATA, 0x100)], "misalign/hot");
}

#[test]
fn stage1_probe_triggers_regeneration() {
    let img = image(|a| misaligned_loop(a, 50));
    let (_r, p) = run_translated(&img, cold_config(), 100_000_000);
    assert!(
        p.engine.stats.misalign_retrains > 0,
        "stage-1 probes must fire and regenerate blocks"
    );
    // After regeneration, accesses are split instead of faulting: far
    // fewer OS-handled faults than accesses.
    assert!(
        p.engine.stats.misalign_faults < 20,
        "avoidance should prevent repeated faults, got {}",
        p.engine.stats.misalign_faults
    );
}

#[test]
fn avoidance_off_pays_fault_penalty() {
    // The ablation knob: without avoidance every misaligned access takes
    // the multi-thousand-cycle fault; with it the cost collapses —
    // the paper's 1236 s -> 133 s observation in miniature.
    let img = image(|a| misaligned_loop(a, 400));
    let mut no_avoid = cold_config();
    no_avoid.enable_misalign_avoidance = false;
    let (_ra, pa) = run_translated(&img, no_avoid, 400_000_000);
    let (_rb, pb) = run_translated(&img, cold_config(), 400_000_000);
    let cycles_without = pa.engine.machine.cycles;
    let cycles_with = pb.engine.machine.cycles;
    assert!(
        cycles_without > cycles_with * 3,
        "avoidance must give a large speedup: {cycles_without} vs {cycles_with}"
    );
    assert!(pa.engine.stats.misalign_faults > 300);
}

#[test]
fn hot_blocks_use_recorded_granularity() {
    let img = image(|a| misaligned_loop(a, 3000));
    let (_r, p) = run_translated(&img, hot_config(), 1_000_000_000);
    assert!(p.engine.stats.hot_traces > 0, "loop must heat");
    // Hot code with avoidance: negligible residual faults.
    assert!(
        p.engine.stats.misalign_faults < 40,
        "hot avoidance failed: {} faults",
        p.engine.stats.misalign_faults
    );
}

#[test]
fn smc_store_invalidates_and_reruns() {
    // The program patches its own code: an immediate in a later
    // instruction is overwritten, and the new value must be used.
    let mut a = Asm::new(0x40_0000);
    // Layout pass to find the offset of the `mov_ri(EBX, 11)` imm.
    let patch_site = {
        let mut probe = Asm::new(0x40_0000);
        probe.mov_ri(EAX, 0); // placeholder of same shape as below
        probe.mov_store(Addr::abs(0), EAX);
        probe.nop();
        probe.here() // address where mov_ri(EBX, ..) starts
    };
    // mov_ri is B8+r imm32: the immediate lives at patch_site + 1.
    a.mov_ri(EAX, 42);
    a.mov_store(Addr::abs(patch_site + 1), EAX); // SMC store
    a.nop();
    a.mov_ri(EBX, 11); // immediate gets overwritten to 42 beforehand
    a.mov_store(Addr::abs(DATA), EBX);
    a.hlt();
    let img = Image::from_asm(&a)
        .with_bss(DATA, 0x1000)
        .with_writable_code();

    let (r, p) = run_translated(&img, cold_config(), 10_000_000);
    assert_eq!(r.end, ia32el::testkit::RunEnd::Halt);
    assert_eq!(
        p.engine.mem.read(DATA as u64, 4).unwrap(),
        42,
        "the patched immediate must be observed"
    );
    assert!(p.engine.stats.smc_events > 0, "SMC must have been detected");

    // Oracle agrees.
    let oracle = ia32el::testkit::run_interp(&img, 1_000_000);
    assert_eq!(oracle.mem.read(DATA as u64, 4).unwrap(), 42);
}

#[test]
fn smc_in_a_loop_retranslates_each_change() {
    // Self-modifying loop: patches the immediate each iteration.
    let mut probe = Asm::new(0x40_0000);
    probe.mov_ri(EAX, 0);
    probe.mov_ri(ECX, 0);
    let _top_probe = probe.label();
    probe.mov_ri(EBX, 0); // will be patched; starts the loop body
    let body_addr = probe.here() - 5; // mov_ri EBX is 5 bytes

    let mut a = Asm::new(0x40_0000);
    a.mov_ri(EAX, 0);
    a.mov_ri(ECX, 5);
    let top = a.label();
    a.bind(top);
    a.mov_ri(EBX, 0); // imm patched below
    a.alu_rr(AluOp::Add, EAX, EBX);
    // Patch the imm to ECX for the next round.
    a.mov_store(Addr::abs(body_addr + 1), ECX);
    a.dec(ECX);
    a.jcc(Cond::Ne, top);
    a.mov_store(Addr::abs(DATA), EAX);
    a.hlt();
    let img = Image::from_asm(&a)
        .with_bss(DATA, 0x1000)
        .with_writable_code();
    differential(&img, cold_config(), &[(DATA, 8)], "smcloop/cold");
}

/// Pads with `nop`s until the next instruction assembles at `addr`.
fn pad_to(a: &mut Asm, addr: u32) {
    while a.here() < addr {
        a.nop();
    }
    assert_eq!(a.here(), addr, "overshot the pad target");
}

#[test]
fn smc_store_to_a_straddling_blocks_second_page_is_seen() {
    // The loop block starts on the last byte of page 0x400: the opcode
    // of `mov ebx, imm32` is there, its immediate (and the rest of the
    // block) on page 0x401. Each iteration rewrites that immediate. No
    // block *starts* on page 0x401 until the loop is over, so a cache
    // that protects only the page of a block's first byte never sees
    // the stores and keeps adding the original 1.
    let mut a = Asm::new(0x40_0000);
    a.mov_ri(EAX, 0);
    a.mov_ri(ECX, 5);
    let top = a.label();
    a.jmp(top);
    pad_to(&mut a, 0x40_0FFF);
    a.bind(top);
    a.mov_ri(EBX, 1); // B8+r at 0x400FFF, imm32 at 0x401000
    a.alu_rr(AluOp::Add, EAX, EBX);
    a.mov_store(Addr::abs(0x40_1000), ECX);
    a.dec(ECX);
    a.jcc(Cond::Ne, top);
    a.mov_store(Addr::abs(DATA), EAX);
    a.hlt();
    let img = Image::from_asm(&a)
        .with_bss(DATA, 0x1000)
        .with_writable_code();

    let oracle = ia32el::testkit::run_interp(&img, 1_000_000);
    assert_eq!(oracle.mem.read(DATA as u64, 4).unwrap(), 1 + 5 + 4 + 3 + 2);
    let (r, p) = run_translated(&img, cold_config(), 10_000_000);
    assert_eq!(r.end, ia32el::testkit::RunEnd::Halt);
    assert_eq!(
        p.engine.mem.read(DATA as u64, 4).unwrap(),
        15,
        "each rewritten immediate must be the one added next ({} SMC events)",
        p.engine.stats.smc_events
    );
    assert!(p.engine.stats.smc_events >= 1, "the stores must fault");
}

#[test]
fn smc_store_to_a_page_a_hot_trace_only_inlines_retires_the_trace() {
    // Three pages: `top` (page 0x400) adds EBX — loaded by a `mov ebx,
    // imm32` the guest rewrites once, from 1 to 1000, three quarters of
    // the way through — `second` (page 0x401) adds 1, `back` (page
    // 0x402) counts down. The first trace is headed at `second` and
    // inlines `back` and `top`; it executes the rewriting store itself,
    // and the never-before-seen block after the store jumps straight
    // back into it. A cache that lists the trace under its head's page
    // only orphans page 0x400's cold blocks and leaves the trace
    // running the baked-in 1.
    let mut a = Asm::new(0x40_0000);
    a.mov_ri(EAX, 0);
    a.mov_ri(ECX, 2000);
    let (top, second, back, done) = (a.label(), a.label(), a.label(), a.label());
    a.bind(top);
    let imm = a.here() + 1; // mov_ri is B8+r imm32
    a.mov_ri(EBX, 1);
    a.alu_rr(AluOp::Add, EAX, EBX);
    a.cmp_ri(ECX, 500);
    a.jcc(Cond::Ne, second);
    a.mov_mi(Addr::abs(imm), 1000);
    a.jmp(second);
    pad_to(&mut a, 0x40_1000);
    a.bind(second);
    a.alu_ri(AluOp::Add, EAX, 1);
    a.jmp(back);
    pad_to(&mut a, 0x40_2000);
    a.bind(back);
    a.dec(ECX);
    a.jcc(Cond::E, done);
    a.jmp(top);
    a.bind(done);
    a.mov_store(Addr::abs(DATA), EAX);
    a.hlt();
    let img = Image::from_asm(&a)
        .with_bss(DATA, 0x1000)
        .with_writable_code();

    let oracle = ia32el::testkit::run_interp(&img, 10_000_000);
    let want = 2000 + 1501 + 499 * 1000;
    assert_eq!(oracle.mem.read(DATA as u64, 4).unwrap(), want);
    let (r, p) = run_translated(&img, hot_config(), 1_000_000_000);
    assert_eq!(r.end, ia32el::testkit::RunEnd::Halt);
    assert!(p.engine.stats.hot_traces > 0, "the loop must heat");
    assert_eq!(
        p.engine.mem.read(DATA as u64, 4).unwrap(),
        want,
        "after the rewrite every iteration adds 1000 ({} extents orphaned)",
        p.engine.stats.smc_extent_orphans
    );
}
