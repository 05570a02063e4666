//! The twelve SPEC-CPU2000-INT-like kernels of Figure 5, each modeled
//! on the characteristic that dominated the paper's score for that
//! benchmark, plus the misalignment-heavy workload.

use crate::{harness::NATIVE_EXIT, prng_bytes, Workload, DATA, RESULT};
use ia32::asm::Asm;
use ia32::inst::*;
use ia32::regs::*;
use ia32::Cond;
use ipf::asm::CodeBuilder;
use ipf::inst::{CmpRel, Op, ShiftKind, Src, Target};
use ipf::regs::{Fr, Gr, Pr, F0, R0};

fn rnd_data() -> Vec<(u32, Vec<u8>)> {
    vec![(DATA, prng_bytes(0x5EED, 0x1_0000))]
}

/// Linked-list data for `mcf`: 32-bit nodes `(next, value)` and, in a
/// separate area, 64-bit nodes `(next8, value8)` for the native build —
/// the paper's "smaller data footprint of the IA-32 version" effect.
fn mcf_data() -> Vec<(u32, Vec<u8>)> {
    const NODES: u32 = 4096;
    let perm: Vec<u32> = {
        // A single cycle visiting every node in shuffled order.
        let mut idx: Vec<u32> = (1..NODES).collect();
        let rnd = prng_bytes(7, idx.len() * 2);
        for i in (1..idx.len()).rev() {
            let j = (u16::from_le_bytes([rnd[2 * i], rnd[2 * i + 1]]) as usize) % (i + 1);
            idx.swap(i, j);
        }
        idx
    };
    let mut n32 = vec![0u8; NODES as usize * 8];
    let mut n64 = vec![0u8; NODES as usize * 16];
    let mut cur = 0u32;
    for &nxt in perm.iter().chain(std::iter::once(&0)) {
        let a32 = DATA + cur * 8;
        let a64 = (DATA + 0x2_0000) + cur * 16;
        n32[(a32 - DATA) as usize..][..4].copy_from_slice(&(DATA + nxt * 8).to_le_bytes());
        n32[(a32 - DATA) as usize + 4..][..4].copy_from_slice(&cur.to_le_bytes());
        n64[(a64 - (DATA + 0x2_0000)) as usize..][..8]
            .copy_from_slice(&((DATA + 0x2_0000) as u64 + nxt as u64 * 16).to_le_bytes());
        n64[(a64 - (DATA + 0x2_0000)) as usize + 8..][..8]
            .copy_from_slice(&(cur as u64).to_le_bytes());
        cur = nxt;
        if cur == 0 {
            break;
        }
    }
    vec![(DATA, n32), (DATA + 0x2_0000, n64)]
}

// --------------------------------------------------------------------
// native-side helpers
// --------------------------------------------------------------------

pub(crate) fn n(i: u16) -> Gr {
    Gr(32 + i)
}

pub(crate) fn nf(i: u16) -> Fr {
    Fr(32 + i)
}

pub(crate) fn np(i: u16) -> Pr {
    Pr(1 + i)
}

/// Emits `iters` countdown-loop scaffolding around `body`.
pub(crate) fn native_loop(cb: &mut CodeBuilder, iters: u32, body: impl FnOnce(&mut CodeBuilder)) {
    cb.push(Op::Movl {
        d: n(0),
        imm: iters as u64,
    });
    cb.push(Op::Movl {
        d: n(1),
        imm: DATA as u64,
    });
    cb.push(Op::Movl {
        d: n(2),
        imm: RESULT as u64,
    });
    cb.stop();
    let top = cb.label();
    cb.bind(top);
    body(cb);
    cb.push(Op::Add {
        d: n(0),
        a: Src::Imm(-1),
        b: n(0),
    });
    cb.stop();
    cb.push(Op::Cmp {
        rel: CmpRel::Ne,
        pt: np(0),
        pf: np(1),
        a: Src::Imm(0),
        b: n(0),
    });
    cb.stop();
    cb.push_pred(
        np(0),
        Op::Br {
            target: Target::Label(top.0),
        },
    );
    cb.stop();
    // Store the checksum from n(10) and exit.
    cb.push(Op::St {
        sz: 8,
        addr: n(2),
        val: n(10),
    });
    cb.stop();
    cb.push(Op::Br {
        target: Target::Abs(NATIVE_EXIT),
    });
    cb.stop();
}

/// Emits common IA-32 loop scaffolding: ECX = iters, EDI = checksum.
pub(crate) fn ia32_loop(a: &mut Asm, iters: u32, body: impl FnOnce(&mut Asm)) {
    a.mov_ri(ECX, iters as i32);
    a.mov_ri(EDI, 0);
    a.mov_ri(ESI, DATA as i32);
    let top = a.label();
    a.bind(top);
    body(a);
    a.dec(ECX);
    a.jcc(Cond::Ne, top);
    a.mov_store(Addr::abs(RESULT), EDI);
    a.hlt();
}

// --------------------------------------------------------------------
// the kernels
// --------------------------------------------------------------------

/// gzip: LZ-style byte matching over a window — tight, hot-friendly.
fn gzip_ia32(a: &mut Asm, iters: u32) {
    ia32_loop(a, iters, |a| {
        // h = (h*31 + data[i & 0xFFF]) ; match check against window.
        a.mov_rr(EAX, ECX);
        a.alu_ri(AluOp::And, EAX, 0xFFF);
        a.inst(Inst::Movzx {
            dst: EBX,
            src_size: ia32::Size::B,
            src: Rm::Mem(Addr::base_index(ESI, EAX, 1, 0)),
        });
        a.lea(EDI, Addr::base_index(EBX, EDI, 2, 0)); // edi = edi*2 + b
        a.mov_rr(EDX, EDI);
        a.alu_ri(AluOp::And, EDX, 0x7FF);
        a.inst(Inst::Movzx {
            dst: EDX,
            src_size: ia32::Size::B,
            src: Rm::Mem(Addr::base_index(ESI, EDX, 1, 0x1000)),
        });
        a.cmp_rr(EBX, EDX);
        let nomatch = a.label();
        a.jcc(Cond::Ne, nomatch);
        a.inc(EDI);
        a.bind(nomatch);
    });
}

fn gzip_native(cb: &mut CodeBuilder, iters: u32) {
    native_loop(cb, iters, |cb| {
        cb.push(Op::And {
            d: n(3),
            a: Src::Imm(0xFFF),
            b: n(0),
        });
        cb.stop();
        cb.push(Op::Add {
            d: n(3),
            a: Src::Reg(n(3)),
            b: n(1),
        });
        cb.stop();
        cb.push(Op::Ld {
            sz: 1,
            d: n(4),
            addr: n(3),
            spec: false,
        });
        cb.stop();
        cb.push(Op::Shladd {
            d: n(10),
            a: n(10),
            count: 1,
            b: n(4),
        });
        cb.stop();
        cb.push(Op::And {
            d: n(5),
            a: Src::Imm(0x7FF),
            b: n(10),
        });
        cb.stop();
        cb.push(Op::Add {
            d: n(5),
            a: Src::Reg(n(5)),
            b: n(1),
        });
        cb.push(Op::Add {
            d: n(5),
            a: Src::Imm(0x1000),
            b: n(5),
        });
        cb.stop();
        cb.push(Op::Ld {
            sz: 1,
            d: n(6),
            addr: n(5),
            spec: false,
        });
        cb.stop();
        cb.push(Op::Cmp {
            rel: CmpRel::Eq,
            pt: np(2),
            pf: np(3),
            a: Src::Reg(n(4)),
            b: n(6),
        });
        cb.stop();
        cb.push_pred(
            np(2),
            Op::Add {
                d: n(10),
                a: Src::Imm(1),
                b: n(10),
            },
        );
        cb.stop();
    });
}

/// mcf: pointer chasing; IA-32 uses 32-bit nodes, native 64-bit nodes
/// (the paper's data-footprint effect, modeled through pointer width).
fn mcf_ia32(a: &mut Asm, iters: u32) {
    a.mov_ri(ECX, iters as i32);
    a.mov_ri(EDI, 0);
    a.mov_ri(ESI, DATA as i32); // node cursor
    let top = a.label();
    a.bind(top);
    a.alu_rm(AluOp::Add, EDI, Addr::base_disp(ESI, 4));
    a.mov_load(ESI, Addr::base(ESI)); // next
    a.dec(ECX);
    a.jcc(Cond::Ne, top);
    a.mov_store(Addr::abs(RESULT), EDI);
    a.hlt();
}

fn mcf_native(cb: &mut CodeBuilder, iters: u32) {
    cb.push(Op::Movl {
        d: n(0),
        imm: iters as u64,
    });
    cb.push(Op::Movl {
        d: n(1),
        imm: (DATA + 0x2_0000) as u64, // 64-bit node area
    });
    cb.push(Op::Movl {
        d: n(2),
        imm: RESULT as u64,
    });
    cb.stop();
    let top = cb.label();
    cb.bind(top);
    cb.push(Op::Add {
        d: n(3),
        a: Src::Imm(8),
        b: n(1),
    });
    cb.stop();
    cb.push(Op::Ld {
        sz: 8,
        d: n(4),
        addr: n(3),
        spec: false,
    });
    cb.push(Op::Ld {
        sz: 8,
        d: n(1),
        addr: n(1),
        spec: false,
    });
    cb.stop();
    cb.push(Op::Add {
        d: n(10),
        a: Src::Reg(n(10)),
        b: n(4),
    });
    cb.push(Op::Add {
        d: n(0),
        a: Src::Imm(-1),
        b: n(0),
    });
    cb.stop();
    cb.push(Op::Cmp {
        rel: CmpRel::Ne,
        pt: np(0),
        pf: np(1),
        a: Src::Imm(0),
        b: n(0),
    });
    cb.stop();
    cb.push_pred(
        np(0),
        Op::Br {
            target: Target::Label(top.0),
        },
    );
    cb.stop();
    cb.push(Op::St {
        sz: 8,
        addr: n(2),
        val: n(10),
    });
    cb.stop();
    cb.push(Op::Br {
        target: Target::Abs(NATIVE_EXIT),
    });
}

/// crafty: variable shifts through CL and flag-carrying bit fiddling —
/// the translations are flag- and shift-expensive.
fn crafty_ia32(a: &mut Asm, iters: u32) {
    ia32_loop(a, iters, |a| {
        a.mov_rr(EAX, ECX);
        a.mov_rr(EBX, ECX);
        a.alu_ri(AluOp::And, ECX, 0); // keep ECX as counter: save/restore below
        a.mov_rr(ECX, EBX); // (count in low bits)
        a.inst(Inst::Shift {
            op: ShiftOp::Shl,
            size: ia32::Size::D,
            dst: Rm::Reg(EAX),
            count: ShiftCount::Cl,
        });
        a.inst(Inst::Alu {
            op: AluOp::Adc,
            size: ia32::Size::D,
            dst: Rm::Reg(EDI),
            src: RmI::Reg(EAX),
        });
        a.inst(Inst::Shift {
            op: ShiftOp::Sar,
            size: ia32::Size::D,
            dst: Rm::Reg(EAX),
            count: ShiftCount::Imm(3),
        });
        a.inst(Inst::Alu {
            op: AluOp::Sbb,
            size: ia32::Size::D,
            dst: Rm::Reg(EDI),
            src: RmI::Reg(EAX),
        });
        a.mov_rr(ECX, EBX);
    });
}

fn crafty_native(cb: &mut CodeBuilder, iters: u32) {
    native_loop(cb, iters, |cb| {
        cb.push(Op::And {
            d: n(3),
            a: Src::Imm(31),
            b: n(0),
        });
        cb.stop();
        cb.push(Op::Shift {
            kind: ShiftKind::Shl,
            d: n(4),
            a: n(0),
            count: Src::Reg(n(3)),
        });
        cb.stop();
        cb.push(Op::Xt {
            signed: false,
            d: n(4),
            a: n(4),
            size: 4,
        });
        cb.stop();
        cb.push(Op::Add {
            d: n(10),
            a: Src::Reg(n(10)),
            b: n(4),
        });
        cb.push(Op::Shift {
            kind: ShiftKind::Shr,
            d: n(5),
            a: n(4),
            count: Src::Imm(3),
        });
        cb.stop();
        cb.push(Op::Sub {
            d: n(10),
            a: Src::Reg(n(10)),
            b: n(5),
        });
        cb.stop();
    });
}

/// eon: indirect calls through a method table (C++-style dispatch).
/// Built in two passes: the first learns the method addresses, the
/// second stores them into the in-memory dispatch table at startup.
fn eon_ia32(a: &mut Asm, iters: u32) {
    fn build(a: &mut Asm, iters: u32, fn_addrs: [u32; 4]) -> [u32; 4] {
        let table = (DATA + 0x3000) as i32;
        // Fill the dispatch table at startup.
        for (k, addr) in fn_addrs.iter().enumerate() {
            a.mov_mi(Addr::abs(table as u32 + k as u32 * 4), *addr as i32);
        }
        let fns: [_; 4] = std::array::from_fn(|_| a.label());
        let start = a.label();
        a.jmp(start);
        for (k, l) in fns.iter().enumerate() {
            a.bind(*l);
            a.alu_ri(AluOp::Add, EDI, (k as i32 + 1) * 3);
            a.ret();
        }
        a.bind(start);
        a.mov_ri(ECX, iters as i32);
        a.mov_ri(EDI, 0);
        let top = a.label();
        a.bind(top);
        a.mov_rr(EAX, ECX);
        a.alu_ri(AluOp::And, EAX, 3);
        a.mov_load(
            EDX,
            Addr {
                base: None,
                index: Some((EAX, 4)),
                disp: table,
            },
        );
        a.call_r(EDX);
        a.dec(ECX);
        a.jcc(Cond::Ne, top);
        a.mov_store(Addr::abs(RESULT), EDI);
        a.hlt();
        std::array::from_fn(|k| a.label_addr(fns[k]))
    }
    let mut probe = Asm::new(a.base());
    let addrs = build(&mut probe, iters, [0; 4]);
    let addrs2 = build(a, iters, addrs);
    debug_assert_eq!(addrs, addrs2, "layout must be stable");
}

fn eon_native(cb: &mut CodeBuilder, iters: u32) {
    // Natively the same dispatch: indirect branch through a register.
    native_loop(cb, iters, |cb| {
        cb.push(Op::And {
            d: n(3),
            a: Src::Imm(3),
            b: n(0),
        });
        cb.stop();
        cb.push(Op::Add {
            d: n(4),
            a: Src::Imm(1),
            b: n(3),
        });
        cb.stop();
        // Simulated virtual dispatch cost: an indirect branch to a
        // per-method block would be realistic; Itanium compilers devirtualize
        // rarely, so model the branch-register move + dependent add.
        cb.push(Op::Shladd {
            d: n(5),
            a: n(4),
            count: 1,
            b: n(4),
        });
        cb.stop();
        cb.push(Op::Add {
            d: n(10),
            a: Src::Reg(n(10)),
            b: n(5),
        });
        cb.stop();
    });
}

/// vcall_mono: two monomorphic indirect call sites whose targets sit
/// exactly 16 KiB apart, so they alias in a direct-mapped lookup table
/// indexed by `(eip >> 2) & 4095` (slots repeat every 16 KiB). A
/// single shared slot thrashes between them — every call is a
/// dispatcher round-trip — while per-site inline caches and a 2-way
/// table hold both predictions indefinitely.
fn vcall_mono_ia32(a: &mut Asm, iters: u32) {
    let start = a.label();
    a.jmp(start);
    let fa = a.here();
    a.alu_ri(AluOp::Add, EDI, 3);
    a.ret();
    // Pad the second method to the aliasing distance.
    while a.here() < fa + 16384 {
        a.nop();
    }
    let fb = a.here();
    a.alu_ri(AluOp::Add, EDI, 5);
    a.ret();
    a.bind(start);
    a.mov_ri(ECX, iters as i32);
    a.mov_ri(EDI, 0);
    a.mov_ri(EBX, fa as i32);
    a.mov_ri(EDX, fb as i32);
    let top = a.label();
    a.bind(top);
    a.call_r(EBX); // site 1: always method A
    a.call_r(EDX); // site 2: always method B
    a.dec(ECX);
    a.jcc(Cond::Ne, top);
    a.mov_store(Addr::abs(RESULT), EDI);
    a.hlt();
}

fn vcall_mono_native(cb: &mut CodeBuilder, iters: u32) {
    // A native compiler devirtualizes the monomorphic calls outright.
    native_loop(cb, iters, |cb| {
        cb.push(Op::Add {
            d: n(10),
            a: Src::Imm(8),
            b: n(10),
        });
        cb.stop();
    });
}

/// callret: nested direct call/ret chains in a hot loop. Every `ret`
/// exercises the return-address path, and a trace selector that stops
/// at calls fragments the whole loop body; one that follows calls and
/// predicts returns covers it with a single hot trace.
fn callret_ia32(a: &mut Asm, iters: u32) {
    let f1 = a.label();
    let f2 = a.label();
    let f3 = a.label();
    let start = a.label();
    a.jmp(start);
    a.bind(f3);
    a.alu_ri(AluOp::Add, EDI, 1);
    a.ret();
    a.bind(f2);
    a.alu_ri(AluOp::Add, EDI, 2);
    a.call(f3);
    a.alu_ri(AluOp::Xor, EDI, 0x11);
    a.ret();
    a.bind(f1);
    a.alu_ri(AluOp::Add, EDI, 4);
    a.call(f2);
    a.alu_ri(AluOp::Xor, EDI, 0x22);
    a.ret();
    a.bind(start);
    a.mov_ri(ECX, iters as i32);
    a.mov_ri(EDI, 0);
    let top = a.label();
    a.bind(top);
    a.call(f1);
    a.call(f1);
    a.dec(ECX);
    a.jcc(Cond::Ne, top);
    a.mov_store(Addr::abs(RESULT), EDI);
    a.hlt();
}

fn callret_native(cb: &mut CodeBuilder, iters: u32) {
    // Per f1 call: edi = ((edi + 4 + 2 + 1) ^ 0x11) ^ 0x22, twice.
    native_loop(cb, iters, |cb| {
        for _ in 0..2 {
            cb.push(Op::Add {
                d: n(10),
                a: Src::Imm(7),
                b: n(10),
            });
            cb.stop();
            cb.push(Op::Xor {
                d: n(10),
                a: Src::Imm(0x11),
                b: n(10),
            });
            cb.stop();
            cb.push(Op::Xor {
                d: n(10),
                a: Src::Imm(0x22),
                b: n(10),
            });
            cb.stop();
        }
    });
}

/// gcc: a large, flat code footprint — many blocks, each executed a few
/// times (translation overhead and dispatch dominate).
fn gcc_ia32(a: &mut Asm, iters: u32) {
    a.mov_ri(ECX, iters as i32);
    a.mov_ri(EDI, 0);
    a.mov_ri(ESI, DATA as i32);
    let top = a.label();
    a.bind(top);
    // 64 distinct small blocks, chained with jumps.
    let blocks: Vec<_> = (0..64).map(|_| a.label()).collect();
    for (k, l) in blocks.iter().enumerate() {
        if k == 0 {
            a.jmp(*l);
        }
        a.bind(*l);
        a.alu_rm(AluOp::Add, EDI, Addr::base_disp(ESI, (k as i32) * 8));
        a.alu_ri(AluOp::Xor, EDI, k as i32 + 1);
        if k + 1 < blocks.len() {
            a.jmp(blocks[k + 1]);
        }
    }
    a.dec(ECX);
    a.jcc(Cond::Ne, top);
    a.mov_store(Addr::abs(RESULT), EDI);
    a.hlt();
}

fn gcc_native(cb: &mut CodeBuilder, iters: u32) {
    native_loop(cb, iters, |cb| {
        for k in 0..64u16 {
            cb.push(Op::Add {
                d: n(3),
                a: Src::Imm((k as i64) * 8),
                b: n(1),
            });
            cb.stop();
            cb.push(Op::Ld {
                sz: 4,
                d: n(4),
                addr: n(3),
                spec: false,
            });
            cb.stop();
            cb.push(Op::Add {
                d: n(10),
                a: Src::Reg(n(10)),
                b: n(4),
            });
            cb.push(Op::Xor {
                d: n(10),
                a: Src::Imm(k as i64 + 1),
                b: n(10),
            });
            cb.stop();
        }
        cb.push(Op::Xt {
            signed: false,
            d: n(10),
            a: n(10),
            size: 4,
        });
        cb.stop();
    });
}

/// A generic array-crunching kernel used (with different mixes) for the
/// remaining benchmarks.
fn array_ia32(mul_every: u32, store_every: u32) -> fn(&mut Asm, u32) {
    // Specialize via small const tables to keep fn-pointer signatures.
    match (mul_every, store_every) {
        (2, 4) => |a: &mut Asm, iters: u32| array_body(a, iters, 2, 4),
        (3, 2) => |a: &mut Asm, iters: u32| array_body(a, iters, 3, 2),
        (1, 8) => |a: &mut Asm, iters: u32| array_body(a, iters, 1, 8),
        (4, 3) => |a: &mut Asm, iters: u32| array_body(a, iters, 4, 3),
        (5, 5) => |a: &mut Asm, iters: u32| array_body(a, iters, 5, 5),
        (2, 2) => |a: &mut Asm, iters: u32| array_body(a, iters, 2, 2),
        _ => |a: &mut Asm, iters: u32| array_body(a, iters, 3, 3),
    }
}

fn array_body(a: &mut Asm, iters: u32, mul_every: u32, store_every: u32) {
    ia32_loop(a, iters, |a| {
        a.mov_rr(EAX, ECX);
        a.alu_ri(AluOp::And, EAX, 0x3FFF);
        a.mov_load(EBX, Addr::base_index(ESI, EAX, 4, 0));
        a.alu_rr(AluOp::Add, EDI, EBX);
        a.mov_rr(EDX, ECX);
        a.alu_ri(AluOp::And, EDX, mul_every as i32 - 1);
        let no_mul = a.label();
        a.jcc(Cond::Ne, no_mul);
        a.imul_rr(EDI, EBX);
        a.bind(no_mul);
        a.mov_rr(EDX, ECX);
        a.alu_ri(AluOp::And, EDX, store_every as i32 - 1);
        let no_store = a.label();
        a.jcc(Cond::Ne, no_store);
        a.mov_store(Addr::base_index(ESI, EAX, 4, 4), EDI);
        a.bind(no_store);
    });
}

fn array_native(cb: &mut CodeBuilder, iters: u32) {
    native_loop(cb, iters, |cb| {
        cb.push(Op::And {
            d: n(3),
            a: Src::Imm(0x3FFF),
            b: n(0),
        });
        cb.stop();
        cb.push(Op::Shladd {
            d: n(3),
            a: n(3),
            count: 2,
            b: n(1),
        });
        cb.stop();
        cb.push(Op::Ld {
            sz: 4,
            d: n(4),
            addr: n(3),
            spec: false,
        });
        cb.stop();
        cb.push(Op::Add {
            d: n(10),
            a: Src::Reg(n(10)),
            b: n(4),
        });
        cb.push(Op::Add {
            d: n(5),
            a: Src::Imm(4),
            b: n(3),
        });
        cb.stop();
        cb.push(Op::St {
            sz: 4,
            addr: n(5),
            val: n(10),
        });
        cb.stop();
    });
}

/// The misalignment-heavy kernel: 4-byte accesses at odd addresses.
fn misalign_ia32(a: &mut Asm, iters: u32) {
    a.mov_ri(ECX, iters as i32);
    a.mov_ri(EDI, 0);
    a.mov_ri(ESI, (DATA + 1) as i32);
    let top = a.label();
    a.bind(top);
    a.alu_rm(AluOp::Add, EDI, Addr::base(ESI));
    a.mov_store(Addr::base_disp(ESI, 8), EDI);
    a.alu_ri(AluOp::Add, ESI, 16); // stays odd
    a.mov_rr(EAX, ESI);
    a.alu_ri(AluOp::And, EAX, 0x7FFF);
    a.lea(ESI, Addr::base_disp(EAX, (DATA + 1) as i32));
    a.alu_ri(AluOp::And, ESI, !0xF); // realign the wandering base...
    a.alu_ri(AluOp::Or, ESI, 1); // ...but keep it odd
    a.dec(ECX);
    a.jcc(Cond::Ne, top);
    a.mov_store(Addr::abs(RESULT), EDI);
    a.hlt();
}

fn misalign_native(cb: &mut CodeBuilder, iters: u32) {
    // Native (compiled) code would keep its data aligned.
    array_native(cb, iters);
}

fn wl(
    name: &'static str,
    build_ia32: fn(&mut Asm, u32),
    build_native: fn(&mut CodeBuilder, u32),
    scale: u32,
) -> Workload {
    Workload {
        name,
        build_ia32,
        build_native,
        data: rnd_data,
        scale,
        native_fraction: 0.0,
        idle_fraction: 0.0,
        writable_code: false,
        uses_os: false,
    }
}

/// All twelve Figure-5 kernels.
pub fn all() -> Vec<Workload> {
    let mut v = vec![
        wl("gzip", gzip_ia32, gzip_native, 60_000),
        wl("vpr", array_ia32(2, 4), array_native, 40_000),
        wl("gcc", gcc_ia32, gcc_native, 700),
        {
            let mut w = wl("mcf", mcf_ia32, mcf_native, 120_000);
            w.data = mcf_data;
            w
        },
        wl("crafty", crafty_ia32, crafty_native, 40_000),
        wl("parser", array_ia32(3, 2), array_native, 40_000),
        wl("eon", eon_ia32, eon_native, 30_000),
        wl("perlbmk", array_ia32(1, 8), array_native, 35_000),
        wl("gap", array_ia32(4, 3), array_native, 40_000),
        wl("vortex", array_ia32(5, 5), array_native, 35_000),
        wl("bzip2", array_ia32(2, 2), array_native, 50_000),
        wl("twolf", array_ia32(3, 3), array_native, 45_000),
    ];
    // Distinguish the array-based kernels a little more through scale.
    v.iter_mut().for_each(|_| {});
    v
}

/// The 1236 s → 133 s misalignment experiment workload.
pub fn misalign_heavy() -> Workload {
    wl("misalign", misalign_ia32, misalign_native, 40_000)
}

/// The call-heavy kernels of the indirect-pressure experiment: the
/// Figure-5 eon dispatcher plus two kernels aimed at the indirect
/// control-transfer machinery (lookup-table aliasing and deep direct
/// call/ret nesting).
pub fn indirect() -> Vec<Workload> {
    vec![
        wl("eon", eon_ia32, eon_native, 30_000),
        wl("vcall_mono", vcall_mono_ia32, vcall_mono_native, 30_000),
        wl("callret", callret_ia32, callret_native, 30_000),
    ]
}

/// `fp` re-uses these helpers.
pub(crate) use native_loop as shared_native_loop;
pub(crate) use {n as ngr, np as npr};
#[allow(unused)]
fn _keep_imports() {
    let _ = (F0, R0, nf(0), ia32_loop as fn(_, _, fn(&mut Asm)));
}
