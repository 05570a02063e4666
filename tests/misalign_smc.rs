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
    // the paper's 1236 s -> 133 s observation in miniature. Off means
    // off on every stage: under the hot configuration the loop heats
    // and keeps faulting in its trace, which is not demoted, since a
    // rebuild would fault the same way.
    let img = image(|a| misaligned_loop(a, 400));
    for (what, base) in [("cold", cold_config()), ("hot", hot_config())] {
        let mut no_avoid = base.clone();
        no_avoid.features.misalign_avoidance = false;
        let (_ra, pa) = run_translated(&img, no_avoid, 400_000_000);
        let (_rb, pb) = run_translated(&img, base, 400_000_000);
        let cycles_without = pa.engine.machine.cycles;
        let cycles_with = pb.engine.machine.cycles;
        assert!(
            cycles_without > cycles_with * 3,
            "{what}: avoidance must give a large speedup: {cycles_without} vs {cycles_with}"
        );
        let faults = pa.engine.stats.misalign_faults;
        assert!(faults > 300, "{what}: avoidance off took {faults} faults");
        let demotions = pa.engine.stats.demotions;
        assert_eq!(demotions, 0, "{what}: a rebuild cannot avoid the faults");
    }
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

/// A guest JIT: each of `iters` iterations stores its loop counter at
/// `patch` (the code of the stub at `stub`, which `emit_stub` emits) and
/// calls the stub, folding its EAX into EDI. The loop itself lives at
/// the start of page 0x400 and never changes. Once the stores have
/// thrashed the patched page, the SMC governor stops protecting it and
/// every translation with source there checks its bytes on entry.
fn jit_image(iters: i32, stub: u32, patch: u32, emit_stub: impl FnOnce(&mut Asm)) -> Image {
    let mut a = Asm::new(0x40_0000);
    let entry = a.label();
    a.mov_ri(ECX, iters);
    a.mov_ri(EDI, 0);
    let top = a.label();
    a.bind(top);
    a.mov_store(Addr::abs(patch), ECX);
    a.call(entry);
    a.alu_rr(AluOp::Add, EDI, EAX);
    a.mov_rr(EAX, EDI);
    a.shift_i(ShiftOp::Shl, EAX, 5);
    a.alu_rr(AluOp::Xor, EDI, EAX);
    a.dec(ECX);
    a.jcc(Cond::Ne, top);
    a.mov_store(Addr::abs(DATA), EDI);
    a.hlt();
    pad_to(&mut a, stub);
    a.bind(entry);
    emit_stub(&mut a);
    Image::from_asm(&a)
        .with_bss(DATA, 0x1000)
        .with_writable_code()
}

/// The stub `mov eax, ecx; add eax, 7; mov ebx, imm32; add eax, ebx;
/// ret` with the `mov ebx` at `mov_ebx` (nops pad the gap), and where
/// its immediate lies.
fn emit_imm_stub(a: &mut Asm, mov_ebx: u32) -> u32 {
    a.mov_rr(EAX, ECX);
    a.alu_ri(AluOp::Add, EAX, 7);
    pad_to(a, mov_ebx);
    a.mov_ri(EBX, 1); // B8+r imm32
    a.alu_rr(AluOp::Add, EAX, EBX);
    a.ret();
    mov_ebx + 1
}

/// Runs `image(iters)` against the oracle, cold and hot, at a few
/// lengths: short enough that the governor has only just struck, and
/// long enough that struck blocks have come back translated.
fn jit_differential(what: &str, image: impl Fn(i32) -> Image) {
    for iters in [50, 200, 2_000] {
        let img = image(iters);
        differential(
            &img,
            cold_config(),
            &[(DATA, 4)],
            &format!("{what}/cold/{iters}"),
        );
        differential(
            &img,
            hot_config(),
            &[(DATA, 4)],
            &format!("{what}/hot/{iters}"),
        );
    }
}

#[test]
fn smc_patch_past_the_first_eight_bytes_of_a_governed_block_is_seen() {
    // The immediate lies at offset 9 of the stub's block: a check of
    // the 8 bytes at the block's EIP never sees it change.
    const STUB: u32 = 0x40_0040;
    jit_differential("patch at offset 9", |iters| {
        jit_image(iters, STUB, STUB + 9, |a| {
            assert_eq!(emit_imm_stub(a, STUB + 8), STUB + 9);
        })
    });
}

#[test]
fn smc_patch_on_the_governed_page_a_block_straddles_onto_is_seen() {
    // The stub starts on page 0x400, which stays write-protected, and
    // its immediate lies on page 0x401, which the stores thrash into
    // snapshot mode. A check chosen by the block's first page alone
    // never runs.
    const STUB: u32 = 0x40_0FF0;
    jit_differential("straddler", |iters| {
        jit_image(iters, STUB, 0x40_1000, |a| {
            assert_eq!(emit_imm_stub(a, 0x40_0FFF), 0x40_1000);
        })
    });
}

#[test]
fn a_guest_jit_keeps_its_loop_translated() {
    // `guest_jit`'s shape: the stub `mov eax, imm32; ret` shares the
    // page with the loop that patches it. Only the stub's block is
    // struck; the loop stays translated (each iteration interprets the
    // stub's one `mov`), and no snapshot check takes a misalignment
    // fault.
    const STUB: u32 = 0x40_0040;
    for iters in [50, 200, 2_000] {
        let img = jit_image(iters, STUB, STUB + 1, |a| {
            a.mov_ri(EAX, 0x5EED);
            a.ret();
        });
        for (cfg, how) in [(cold_config(), "cold"), (hot_config(), "hot")] {
            let p = differential(&img, cfg, &[(DATA, 4)], &format!("guest jit/{how}/{iters}"));
            let s = &p.engine.stats;
            assert!(
                s.smc_blacklists > 0,
                "{how}/{iters}: the governor must strike"
            );
            assert_eq!(
                s.misalign_faults, 0,
                "{how}/{iters}: misaligned check loads"
            );
            assert!(
                s.interp_steps <= iters as u64 + 64,
                "{how}/{iters}: {} interpreter steps",
                s.interp_steps
            );
        }
    }
}

#[test]
fn no_trace_inlines_a_block_straddling_onto_a_governed_page() {
    // The loop block starts on page 0x400 and reads the immediate of
    // its `mov ebx, imm32` from page 0x401, where the stub the loop
    // patches every iteration thrashes the governor into snapshot mode.
    // A quarter of the way from the end the loop rewrites that
    // immediate once, from 1 to 1000. Page 0x401 is no longer
    // protected, so only the loop block's own check sees the store: a
    // trace that inlined the block because its first page is protected
    // would keep adding 1.
    const STUB: u32 = 0x40_1800;
    let mut a = Asm::new(0x40_0000);
    let (top, stub, skip) = (a.label(), a.label(), a.label());
    a.mov_ri(ECX, 2_000);
    a.mov_ri(EDI, 0);
    a.jmp(top);
    pad_to(&mut a, 0x40_0FFF);
    a.bind(top);
    a.mov_ri(EBX, 1); // B8+r at 0x400FFF, imm32 at 0x401000
    a.alu_rr(AluOp::Add, EDI, EBX);
    a.mov_store(Addr::abs(STUB + 1), ECX);
    a.call(stub);
    a.alu_rr(AluOp::Add, EDI, EAX);
    a.cmp_ri(ECX, 500);
    a.jcc(Cond::Ne, skip);
    a.mov_mi(Addr::abs(0x40_1000), 1000);
    a.bind(skip);
    a.dec(ECX);
    a.jcc(Cond::Ne, top);
    a.mov_store(Addr::abs(DATA), EDI);
    a.hlt();
    pad_to(&mut a, STUB);
    a.bind(stub);
    a.mov_ri(EAX, 0);
    a.ret();
    let img = Image::from_asm(&a)
        .with_bss(DATA, 0x1000)
        .with_writable_code();
    let p = differential(&img, hot_config(), &[(DATA, 4)], "straddling trace/hot");
    assert!(
        p.engine.stats.smc_blacklists > 0,
        "page 0x401 must be governed"
    );
}

#[test]
fn no_trace_if_converts_a_hammock_onto_a_governed_page() {
    // The block ending in `jz` lies on page 0x400; the `if` body it
    // skips every other iteration starts on the page's last byte and
    // reads its `mov ebx, imm32` immediate from page 0x401, which the
    // patched stub thrashes into snapshot mode. The loop rewrites that
    // immediate once, from 1 to 1000. A trace that if-converted the
    // body would keep adding 1.
    const STUB: u32 = 0x40_1800;
    let mut a = Asm::new(0x40_0000);
    let (top, stub, skip, cont) = (a.label(), a.label(), a.label(), a.label());
    a.mov_ri(ECX, 800);
    a.mov_ri(EDI, 0);
    a.bind(top);
    a.mov_store(Addr::abs(STUB + 1), ECX);
    a.call(stub);
    a.alu_rr(AluOp::Add, EDI, EAX);
    a.mov_rr(EAX, ECX);
    pad_to(&mut a, 0x40_0FFF - 9); // `and eax, 1` (3 bytes), `jz rel32` (6)
    a.alu_ri(AluOp::And, EAX, 1);
    a.jcc(Cond::E, skip);
    assert_eq!(
        a.here(),
        0x40_0FFF,
        "the if body starts on the page's last byte"
    );
    a.mov_ri(EBX, 1); // B8+r at 0x400FFF, imm32 at 0x401000
    a.alu_rr(AluOp::Add, EDI, EBX);
    a.bind(skip);
    a.cmp_ri(ECX, 201);
    a.jcc(Cond::Ne, cont);
    a.mov_mi(Addr::abs(0x40_1000), 1000);
    a.bind(cont);
    a.dec(ECX);
    a.jcc(Cond::Ne, top);
    a.mov_store(Addr::abs(DATA), EDI);
    a.hlt();
    pad_to(&mut a, STUB);
    a.bind(stub);
    a.mov_ri(EAX, 0);
    a.ret();
    let img = Image::from_asm(&a)
        .with_bss(DATA, 0x1000)
        .with_writable_code();
    let p = differential(&img, hot_config(), &[(DATA, 4)], "hammock/hot");
    assert!(
        p.engine.stats.smc_blacklists > 0,
        "page 0x401 must be governed"
    );
}

/// Where the frame tests put the guest's stack: on the code page, above
/// the code. The translator write-protects that page once it has
/// translated from it, so the frame it pushes for the guest is a store
/// onto protected translated code.
const STACK_ON_CODE: u32 = 0x40_0F00;

/// A guest whose exception handler runs on the code page: the load
/// from an unmapped address faults, the translator pushes the faulting
/// EIP onto the code page, and the handler repoints the load and
/// returns to retry it. The frame must land as it does under the
/// interpreter, not kill the guest.
#[test]
fn exception_frame_on_a_code_page_lands() {
    let build = |haddr: i32| {
        let mut a = Asm::new(0x40_0000);
        let handler = a.label();
        a.mov_ri(ESP, STACK_ON_CODE as i32);
        a.mov_ri(EAX, btlib::sys::SIGNAL as i32);
        a.mov_ri(EBX, haddr);
        a.int(0x80);
        a.mov_ri(ESI, 0x1000); // unmapped
        a.mov_load(EDX, Addr::base(ESI)); // faults, then retried
        a.mov_store(Addr::abs(DATA), EDX);
        a.hlt();
        a.bind(handler);
        a.mov_ri(ESI, (DATA + 4) as i32);
        a.mov_mi(Addr::base(ESI), 0x777);
        a.ret();
        (a.label_addr(handler), a)
    };
    let (h, _) = build(0);
    let (_, a) = build(h as i32);
    let img = Image::from_asm(&a)
        .with_bss(DATA, 0x1000)
        .with_writable_code();
    // The frame word itself is compared too: it is on the code page.
    let regions = [(DATA, 8), (STACK_ON_CODE - 4, 4)];
    let p = differential(&img, cold_config(), &regions, "exception frame/cold");
    assert_eq!(p.engine.mem.read(DATA as u64, 4).unwrap(), 0x777);
    assert!(p.engine.stats.smc_events > 0, "the frame went through SMC");
    differential(&img, hot_config(), &regions, "exception frame/hot");
}

/// The same guest with an asynchronous signal in place of the fault: it
/// arrives while the stack is on the code page, and its three-word
/// frame must land there and come back through `sigreturn`. The
/// handler is transparent, so the run ends as the interpreter's run
/// without the signal does.
#[test]
fn signal_frame_on_a_code_page_lands() {
    let smc_events = signal_frame_lands(STACK_ON_CODE, 0x40_0000);
    assert!(smc_events > 0, "the frame went through SMC");
}

/// A signal frame straddling two code pages: the stack top sits just
/// past the first page, and the guest has run code on both pages before
/// the signal arrives, so each of the frame's two pages is a protected
/// code page. Both stores must land.
#[test]
fn signal_frame_straddling_two_code_pages_lands() {
    let smc_events = signal_frame_lands(0x40_1004, 0x40_1000);
    assert!(smc_events >= 2, "both pages went through SMC");
}

/// Runs a guest that registers a transparent handler with its stack top
/// at `stack_top`, then jumps to `int_at` (padding up to it) to take a
/// signal that is due at once. Checks the run against the interpreter's
/// and the frame against the resume EIP; returns the SMC events.
fn signal_frame_lands(stack_top: u32, int_at: u32) -> u64 {
    use btgeneric::engine::Outcome;
    use btlib::{Process, SignalPlan, SimOs};
    let build = |haddr: i32| {
        let mut a = Asm::new(0x40_0000);
        let (int, handler) = (a.label(), a.label());
        a.mov_ri(ESP, stack_top as i32);
        a.mov_ri(EAX, btlib::sys::SIGNAL as i32);
        a.mov_ri(EBX, haddr);
        a.jmp(int);
        while a.here() < int_at {
            a.nop();
        }
        // A frame reaching past `int_at` overwrites these four bytes
        // once they have run.
        a.bind(int);
        for _ in 0..4 {
            a.nop();
        }
        a.int(0x80);
        // The signal is delivered at the dispatch right after the
        // handler is registered, at this EIP.
        let resume = a.here();
        a.mov_ri(ECX, 7);
        a.alu_ri(AluOp::Add, ECX, 35);
        a.mov_store(Addr::abs(DATA), ECX);
        a.hlt();
        a.bind(handler);
        a.mov_ri(EAX, btlib::sys::SIGRETURN as i32);
        a.int(0x80);
        (a.label_addr(handler), resume, a)
    };
    let (h, ..) = build(0);
    let (_, resume, a) = build(h as i32);
    let img = Image::from_asm(&a)
        .with_bss(DATA, 0x1000)
        .with_writable_code();
    let oracle = ia32el::testkit::run_interp(&img, 1_000_000);
    assert_eq!(oracle.end, ia32el::testkit::RunEnd::Halt);

    let plan = SignalPlan {
        arrivals: vec![0],
        max_depth: 1,
    };
    let os = SimOs::new().with_signals(plan);
    let mut p = Process::launch_with(&img, os, cold_config()).expect("launch");
    let cpu = match p.run(10_000_000) {
        Outcome::Halted(cpu) => cpu,
        other => panic!("signal frame at {stack_top:#x}: {other:?}"),
    };
    ia32el::testkit::assert_cpu_equiv(&oracle.cpu, &cpu, "signal frame");
    assert_eq!(p.engine.mem.read(DATA as u64, 4).unwrap(), 42);
    assert_eq!(p.engine.stats.signals_delivered, 1);
    assert_eq!(p.os.sigreturns, 1);
    let frame = (stack_top - 12) as u64;
    assert_eq!(p.engine.mem.read(frame, 4).unwrap(), resume as u64);
    p.engine.stats.smc_events
}
