//! FP/SIMD kernels: the CPU2000-FP-like composite of Figure 8 plus MMX.

use crate::int::{ngr, npr, shared_native_loop};
use crate::{prng_bytes, Workload, DATA, RESULT};
use ia32::asm::Asm;
use ia32::inst::*;
use ia32::regs::*;
use ia32::Cond;
use ipf::asm::CodeBuilder;
use ipf::inst::{FFmt, FmaKind, Op, ShiftKind, Src};
use ipf::regs::{Fr, F0, F1};

/// Arrays of doubles at DATA (x) and DATA+0x8000 (y); floats at
/// DATA+0x10000 (a) and DATA+0x18000 (b).
fn fp_data() -> Vec<(u32, Vec<u8>)> {
    let mut x = Vec::new();
    let mut y = Vec::new();
    let raw = prng_bytes(99, 4096);
    for &r in raw.iter().take(1024) {
        let v = (r as f64 - 128.0) / 16.0;
        x.extend_from_slice(&v.to_bits().to_le_bytes());
        y.extend_from_slice(&(v * 0.5 + 1.0).to_bits().to_le_bytes());
    }
    let mut fa = Vec::new();
    let mut fb = Vec::new();
    for i in 0..2048usize {
        let v = (raw[i % 4096] as f32 - 100.0) / 8.0;
        fa.extend_from_slice(&v.to_bits().to_le_bytes());
        fb.extend_from_slice(&(v * 0.25 + 2.0f32).to_bits().to_le_bytes());
    }
    vec![
        (DATA, x),
        (DATA + 0x8000, y),
        (DATA + 0x1_0000, fa),
        (DATA + 0x1_8000, fb),
    ]
}

/// daxpy: `y[i] += a * x[i]` with the x87 stack.
fn daxpy_ia32(a: &mut Asm, iters: u32) {
    a.mov_ri(ECX, iters as i32);
    a.mov_ri(EAX, 0); // i
    let top = a.label();
    a.bind(top);
    a.mov_rr(EBX, EAX);
    a.alu_ri(AluOp::And, EBX, 1023);
    a.shift_i(ShiftOp::Shl, EBX, 3);
    a.inst(Inst::Fld {
        src: FpOperand::M64(Addr {
            base: Some(EBX),
            index: None,
            disp: DATA as i32,
        }),
    });
    // * 1.5 (the "a" constant via ld1 + ld1 + add... keep simple: *1.5)
    a.inst(Inst::Fld1);
    a.inst(Inst::Fld1);
    a.inst(Inst::Farith {
        op: FpArithOp::Add,
        form: FpArithForm::StiSt0 { i: 1, pop: true },
    }); // 2.0
    a.inst(Inst::Farith {
        op: FpArithOp::Mul,
        form: FpArithForm::StiSt0 { i: 1, pop: true },
    }); // x*2
    a.inst(Inst::Farith {
        op: FpArithOp::Add,
        form: FpArithForm::St0Mem(
            Size2::D,
            Addr {
                base: Some(EBX),
                index: None,
                disp: (DATA + 0x8000) as i32,
            },
        ),
    });
    a.inst(Inst::Fst {
        dst: FpOperand::M64(Addr {
            base: Some(EBX),
            index: None,
            disp: (DATA + 0x8000) as i32,
        }),
        pop: true,
    });
    a.inc(EAX);
    a.dec(ECX);
    a.jcc(Cond::Ne, top);
    a.mov_store(Addr::abs(RESULT), EAX);
    a.hlt();
}

fn daxpy_native(cb: &mut CodeBuilder, iters: u32) {
    shared_native_loop(cb, iters, |cb| {
        let (x, y) = (ngr(3), ngr(4));
        cb.push(Op::And {
            d: x,
            a: Src::Imm(1023),
            b: ngr(0),
        });
        cb.stop();
        cb.push(Op::Shift {
            kind: ShiftKind::Shl,
            d: x,
            a: x,
            count: Src::Imm(3),
        });
        cb.stop();
        cb.push(Op::Add {
            d: y,
            a: Src::Reg(x),
            b: ngr(1),
        });
        cb.stop();
        cb.push(Op::Add {
            d: x,
            a: Src::Imm(0x8000),
            b: y,
        });
        cb.stop();
        let (fx, fy) = (Fr(32), Fr(33));
        cb.push(Op::Ldf {
            fmt: FFmt::D,
            f: fx,
            addr: y,
            spec: false,
        });
        cb.push(Op::Ldf {
            fmt: FFmt::D,
            f: fy,
            addr: x,
            spec: false,
        });
        cb.stop();
        // y += 2*x in one fma (f34 = 2.0 preloaded outside... compute
        // 2x = x+x with fma x*1+x).
        cb.push(Op::Fma {
            kind: FmaKind::Fma,
            d: Fr(35),
            a: fx,
            b: F1,
            c: fx,
        });
        cb.stop();
        cb.push(Op::Fma {
            kind: FmaKind::Fma,
            d: fy,
            a: Fr(35),
            b: F1,
            c: fy,
        });
        cb.stop();
        cb.push(Op::Stf {
            fmt: FFmt::D,
            f: fy,
            addr: x,
        });
        cb.stop();
        cb.push(Op::Add {
            d: ngr(10),
            a: Src::Imm(1),
            b: ngr(10),
        });
        cb.stop();
    });
}

/// Horner polynomial evaluation with FXCH juggling (the paper's FXCHG
/// elimination showcase).
fn poly_ia32(a: &mut Asm, iters: u32) {
    a.mov_ri(ECX, iters as i32);
    let top = a.label();
    a.bind(top);
    a.mov_rr(EBX, ECX);
    a.alu_ri(AluOp::And, EBX, 1023);
    a.shift_i(ShiftOp::Shl, EBX, 3);
    a.inst(Inst::Fld {
        src: FpOperand::M64(Addr {
            base: Some(EBX),
            index: None,
            disp: DATA as i32,
        }),
    }); // x
    a.inst(Inst::Fld1); // acc = 1
                        // acc = acc*x + 1, three times, with fxch between.
    for _ in 0..3 {
        a.inst(Inst::Fxch { i: 1 }); // st0=x, st1=acc
        a.inst(Inst::Fxch { i: 1 }); // juggle (compiler-style noise)
        a.inst(Inst::Farith {
            op: FpArithOp::Mul,
            form: FpArithForm::St0Sti(1),
        }); // acc *= x
        a.inst(Inst::Fld1);
        a.inst(Inst::Farith {
            op: FpArithOp::Add,
            form: FpArithForm::StiSt0 { i: 1, pop: true },
        }); // acc += 1
    }
    a.inst(Inst::Fst {
        dst: FpOperand::M64(Addr::abs(RESULT)),
        pop: true,
    });
    a.inst(Inst::Fst {
        dst: FpOperand::St(0),
        pop: true,
    }); // drop x
    a.dec(ECX);
    a.jcc(Cond::Ne, top);
    a.hlt();
}

fn poly_native(cb: &mut CodeBuilder, iters: u32) {
    shared_native_loop(cb, iters, |cb| {
        let x = ngr(3);
        cb.push(Op::And {
            d: x,
            a: Src::Imm(1023),
            b: ngr(0),
        });
        cb.stop();
        cb.push(Op::Shift {
            kind: ShiftKind::Shl,
            d: x,
            a: x,
            count: Src::Imm(3),
        });
        cb.stop();
        cb.push(Op::Add {
            d: x,
            a: Src::Reg(x),
            b: ngr(1),
        });
        cb.stop();
        cb.push(Op::Ldf {
            fmt: FFmt::D,
            f: Fr(32),
            addr: x,
            spec: false,
        });
        cb.stop();
        // acc = ((x + 1)x + 1)x + 1 as three fmas.
        cb.push(Op::Fma {
            kind: FmaKind::Fma,
            d: Fr(33),
            a: F1,
            b: Fr(32),
            c: F1,
        });
        cb.stop();
        cb.push(Op::Fma {
            kind: FmaKind::Fma,
            d: Fr(33),
            a: Fr(33),
            b: Fr(32),
            c: F1,
        });
        cb.stop();
        cb.push(Op::Fma {
            kind: FmaKind::Fma,
            d: Fr(33),
            a: Fr(33),
            b: Fr(32),
            c: F1,
        });
        cb.stop();
        cb.push(Op::Stf {
            fmt: FFmt::D,
            f: Fr(33),
            addr: ngr(2),
        });
        cb.stop();
    });
}

/// SSE scalar dot-product fragment.
fn sse_dot_ia32(a: &mut Asm, iters: u32) {
    a.mov_ri(ECX, iters as i32);
    a.inst(Inst::Xorps {
        dst: Xmm::new(2),
        src: XmmM::Reg(Xmm::new(2)),
    });
    let top = a.label();
    a.bind(top);
    a.mov_rr(EBX, ECX);
    a.alu_ri(AluOp::And, EBX, 2047);
    a.shift_i(ShiftOp::Shl, EBX, 2);
    a.inst(Inst::Movss {
        xmm: Xmm::new(0),
        rm: XmmM::Mem(Addr {
            base: Some(EBX),
            index: None,
            disp: (DATA + 0x1_0000) as i32,
        }),
        to_xmm: true,
    });
    a.inst(Inst::SseArith {
        op: SseOp::Mul,
        scalar: true,
        dst: Xmm::new(0),
        src: XmmM::Mem(Addr {
            base: Some(EBX),
            index: None,
            disp: (DATA + 0x1_8000) as i32,
        }),
    });
    a.inst(Inst::SseArith {
        op: SseOp::Add,
        scalar: true,
        dst: Xmm::new(2),
        src: XmmM::Reg(Xmm::new(0)),
    });
    a.dec(ECX);
    a.jcc(Cond::Ne, top);
    a.inst(Inst::Movss {
        xmm: Xmm::new(2),
        rm: XmmM::Mem(Addr::abs(RESULT)),
        to_xmm: false,
    });
    a.hlt();
}

fn sse_dot_native(cb: &mut CodeBuilder, iters: u32) {
    shared_native_loop(cb, iters, |cb| {
        let x = ngr(3);
        cb.push(Op::And {
            d: x,
            a: Src::Imm(2047),
            b: ngr(0),
        });
        cb.stop();
        cb.push(Op::Shift {
            kind: ShiftKind::Shl,
            d: x,
            a: x,
            count: Src::Imm(2),
        });
        cb.stop();
        cb.push(Op::Add {
            d: x,
            a: Src::Reg(x),
            b: ngr(1),
        });
        cb.stop();
        let y = ngr(4);
        cb.push(Op::Add {
            d: y,
            a: Src::Imm(0x8000),
            b: x,
        });
        cb.push(Op::Add {
            d: x,
            a: Src::Imm(0x1_0000),
            b: x,
        });
        cb.stop();
        cb.push(Op::Ldf {
            fmt: FFmt::S,
            f: Fr(32),
            addr: x,
            spec: false,
        });
        cb.push(Op::Ldf {
            fmt: FFmt::S,
            f: Fr(33),
            addr: y,
            spec: false,
        });
        cb.stop();
        cb.push(Op::Fma {
            kind: FmaKind::Fma,
            d: Fr(34),
            a: Fr(32),
            b: Fr(33),
            c: Fr(34),
        });
        cb.stop();
    });
}

/// Packed-single SAXPY (ADDPS/MULPS), 4 lanes at a time.
fn sse_packed_ia32(a: &mut Asm, iters: u32) {
    a.mov_ri(ECX, iters as i32);
    let top = a.label();
    a.bind(top);
    a.mov_rr(EBX, ECX);
    a.alu_ri(AluOp::And, EBX, 511);
    a.shift_i(ShiftOp::Shl, EBX, 4);
    a.inst(Inst::Movps {
        xmm: Xmm::new(0),
        rm: XmmM::Mem(Addr {
            base: Some(EBX),
            index: None,
            disp: (DATA + 0x1_0000) as i32,
        }),
        to_xmm: true,
        aligned: true,
    });
    a.inst(Inst::SseArith {
        op: SseOp::Mul,
        scalar: false,
        dst: Xmm::new(0),
        src: XmmM::Mem(Addr {
            base: Some(EBX),
            index: None,
            disp: (DATA + 0x1_8000) as i32,
        }),
    });
    a.inst(Inst::SseArith {
        op: SseOp::Add,
        scalar: false,
        dst: Xmm::new(0),
        src: XmmM::Mem(Addr {
            base: Some(EBX),
            index: None,
            disp: (DATA + 0x1_8000) as i32,
        }),
    });
    a.inst(Inst::Movps {
        xmm: Xmm::new(0),
        rm: XmmM::Mem(Addr {
            base: Some(EBX),
            index: None,
            disp: (DATA + 0x1_0000) as i32,
        }),
        to_xmm: false,
        aligned: true,
    });
    a.dec(ECX);
    a.jcc(Cond::Ne, top);
    a.hlt();
}

fn sse_packed_native(cb: &mut CodeBuilder, iters: u32) {
    shared_native_loop(cb, iters, |cb| {
        let x = ngr(3);
        cb.push(Op::And {
            d: x,
            a: Src::Imm(511),
            b: ngr(0),
        });
        cb.stop();
        cb.push(Op::Shift {
            kind: ShiftKind::Shl,
            d: x,
            a: x,
            count: Src::Imm(4),
        });
        cb.stop();
        cb.push(Op::Add {
            d: x,
            a: Src::Imm(0x1_0000),
            b: x,
        });
        cb.stop();
        cb.push(Op::Add {
            d: x,
            a: Src::Reg(x),
            b: ngr(1),
        });
        cb.stop();
        let y = ngr(4);
        cb.push(Op::Add {
            d: y,
            a: Src::Imm(0x8000),
            b: x,
        });
        cb.stop();
        // Two 8-byte packed halves per 16-byte vector.
        for half in 0..2i64 {
            let (xa, ya) = (ngr(5), ngr(6));
            cb.push(Op::Add {
                d: xa,
                a: Src::Imm(half * 8),
                b: x,
            });
            cb.push(Op::Add {
                d: ya,
                a: Src::Imm(half * 8),
                b: y,
            });
            cb.stop();
            cb.push(Op::Ldf {
                fmt: FFmt::Raw,
                f: Fr(32),
                addr: xa,
                spec: false,
            });
            cb.push(Op::Ldf {
                fmt: FFmt::Raw,
                f: Fr(33),
                addr: ya,
                spec: false,
            });
            cb.stop();
            cb.push(Op::Fpma {
                kind: FmaKind::Fma,
                d: Fr(34),
                a: Fr(32),
                b: Fr(33),
                c: Fr(33),
            });
            cb.stop();
            cb.push(Op::Stf {
                fmt: FFmt::Raw,
                f: Fr(34),
                addr: xa,
            });
            cb.stop();
        }
    });
}

/// MMX byte-blend kernel.
fn mmx_ia32(a: &mut Asm, iters: u32) {
    a.mov_ri(ECX, iters as i32);
    let top = a.label();
    a.bind(top);
    a.mov_rr(EBX, ECX);
    a.alu_ri(AluOp::And, EBX, 4095);
    a.shift_i(ShiftOp::Shl, EBX, 3);
    a.inst(Inst::Movq {
        mm: Mm::new(0),
        src: MmM::Mem(Addr {
            base: Some(EBX),
            index: None,
            disp: DATA as i32,
        }),
        to_mm: true,
    });
    a.inst(Inst::PAlu {
        op: MmxOp::PAdd(1),
        dst: Mm::new(0),
        src: MmM::Mem(Addr {
            base: Some(EBX),
            index: None,
            disp: (DATA + 0x8000) as i32,
        }),
    });
    a.inst(Inst::PAlu {
        op: MmxOp::Pxor,
        dst: Mm::new(0),
        src: MmM::Reg(Mm::new(0)),
    });
    a.inst(Inst::Movq {
        mm: Mm::new(0),
        src: MmM::Mem(Addr {
            base: Some(EBX),
            index: None,
            disp: DATA as i32,
        }),
        to_mm: false,
    });
    a.dec(ECX);
    a.jcc(Cond::Ne, top);
    a.inst(Inst::Emms);
    a.hlt();
}

fn mmx_native(cb: &mut CodeBuilder, iters: u32) {
    shared_native_loop(cb, iters, |cb| {
        let x = ngr(3);
        cb.push(Op::And {
            d: x,
            a: Src::Imm(4095),
            b: ngr(0),
        });
        cb.stop();
        cb.push(Op::Shift {
            kind: ShiftKind::Shl,
            d: x,
            a: x,
            count: Src::Imm(3),
        });
        cb.stop();
        cb.push(Op::Add {
            d: x,
            a: Src::Reg(x),
            b: ngr(1),
        });
        cb.stop();
        let y = ngr(4);
        cb.push(Op::Add {
            d: y,
            a: Src::Imm(0x8000),
            b: x,
        });
        cb.stop();
        cb.push(Op::Ld {
            sz: 8,
            d: ngr(5),
            addr: x,
            spec: false,
        });
        cb.push(Op::Ld {
            sz: 8,
            d: ngr(6),
            addr: y,
            spec: false,
        });
        cb.stop();
        cb.push(Op::Padd {
            sub: false,
            sz: 1,
            d: ngr(5),
            a: ngr(5),
            b: ngr(6),
        });
        cb.stop();
        cb.push(Op::Xor {
            d: ngr(5),
            a: Src::Reg(ngr(5)),
            b: ngr(5),
        });
        cb.stop();
        cb.push(Op::St {
            sz: 8,
            addr: x,
            val: ngr(5),
        });
        cb.stop();
    });
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
        data: fp_data,
        scale,
        native_fraction: 0.0,
        idle_fraction: 0.0,
        writable_code: false,
        uses_os: false,
    }
}

/// The FP/SIMD kernels.
pub fn all() -> Vec<Workload> {
    vec![
        wl("daxpy", daxpy_ia32, daxpy_native, 30_000),
        wl("poly", poly_ia32, poly_native, 25_000),
        wl("sse_dot", sse_dot_ia32, sse_dot_native, 40_000),
        wl("sse_saxpy", sse_packed_ia32, sse_packed_native, 25_000),
        wl("mmx_blend", mmx_ia32, mmx_native, 30_000),
    ]
}

#[allow(unused)]
fn _keep(_: Pr) {}
use ipf::regs::Pr;
#[allow(unused)]
fn _keep2() {
    let _ = (F0, npr(0));
}
