//! Differential tests for the x87 / MMX / SSE translations — the
//! paper's §5 machinery: FP-stack speculation on a flat register file,
//! FXCHG elimination, FP↔MMX aliasing-mode speculation, and XMM format
//! speculation.

use btgeneric::engine::Config;
use btgeneric::features::Features;
use ia32::asm::{Asm, Image};
use ia32::inst::*;
use ia32::regs::*;
use ia32::Cond;
use ia32el::testkit::{ablations, cold_config, differential, hot_config};

const DATA: u32 = 0x50_0000;

fn check(name: &str, f: impl Fn(&mut Asm)) {
    let mut a = Asm::new(0x40_0000);
    f(&mut a);
    let img = Image::from_asm(&a).with_bss(DATA, 0x1_0000);
    differential(
        &img,
        cold_config(),
        &[(DATA, 0x400)],
        &format!("{name}/cold"),
    );
    differential(&img, hot_config(), &[(DATA, 0x400)], &format!("{name}/hot"));
    // The ablation knobs' off-states must translate correctly too.
    let cold_no_fp_spec = Config {
        features: Features {
            fp_spec: false,
            ..Features::default()
        },
        ..cold_config()
    };
    differential(
        &img,
        cold_no_fp_spec,
        &[(DATA, 0x400)],
        &format!("{name}/cold/no-fp-spec"),
    );
    for (knob, cfg) in ablations(hot_config()) {
        differential(&img, cfg, &[(DATA, 0x400)], &format!("{name}/hot/{knob}"));
    }
}

fn put_f64(a: &mut Asm, addr: u32, v: f64) {
    let bits = v.to_bits();
    a.mov_mi(Addr::abs(addr), bits as u32 as i32);
    a.mov_mi(Addr::abs(addr + 4), (bits >> 32) as u32 as i32);
}

fn put_f32(a: &mut Asm, addr: u32, v: f32) {
    a.mov_mi(Addr::abs(addr), v.to_bits() as i32);
}

#[test]
fn x87_stack_arithmetic() {
    check("x87-arith", |a| {
        put_f64(a, DATA, 1.5);
        put_f64(a, DATA + 8, 2.25);
        put_f32(a, DATA + 16, 10.0);
        a.inst(Inst::Fld {
            src: FpOperand::M64(Addr::abs(DATA)),
        });
        a.inst(Inst::Fld {
            src: FpOperand::M64(Addr::abs(DATA + 8)),
        });
        a.inst(Inst::Farith {
            op: FpArithOp::Add,
            form: FpArithForm::StiSt0 { i: 1, pop: true },
        });
        a.inst(Inst::Farith {
            op: FpArithOp::Mul,
            form: FpArithForm::St0Mem(Size2::S, Addr::abs(DATA + 16)),
        });
        a.inst(Inst::Farith {
            op: FpArithOp::Sub,
            form: FpArithForm::St0Mem(Size2::D, Addr::abs(DATA)),
        });
        a.inst(Inst::Fst {
            dst: FpOperand::M64(Addr::abs(DATA + 24)),
            pop: true,
        });
        a.hlt();
    });
}

#[test]
fn x87_division_exactness() {
    // FDIV goes through the frcpa + Newton-Raphson + Markstein sequence
    // and must be bit-exact.
    check("x87-div", |a| {
        put_f64(a, DATA, 1.0);
        put_f64(a, DATA + 8, 3.0);
        put_f64(a, DATA + 16, 1.0e300);
        put_f64(a, DATA + 24, -7.25e-3);
        for (x, y, out) in [(0u32, 8u32, 64u32), (16, 24, 72), (8, 16, 80)] {
            a.inst(Inst::Fld {
                src: FpOperand::M64(Addr::abs(DATA + x)),
            });
            a.inst(Inst::Farith {
                op: FpArithOp::Div,
                form: FpArithForm::St0Mem(Size2::D, Addr::abs(DATA + y)),
            });
            a.inst(Inst::Fst {
                dst: FpOperand::M64(Addr::abs(DATA + out)),
                pop: true,
            });
        }
        // Divide by zero (masked): result infinity.
        put_f64(a, DATA + 32, 0.0);
        a.inst(Inst::Fld {
            src: FpOperand::M64(Addr::abs(DATA)),
        });
        a.inst(Inst::Farith {
            op: FpArithOp::Div,
            form: FpArithForm::St0Mem(Size2::D, Addr::abs(DATA + 32)),
        });
        a.inst(Inst::Fst {
            dst: FpOperand::M64(Addr::abs(DATA + 88)),
            pop: true,
        });
        a.hlt();
    });
}

#[test]
fn x87_fxchg_and_compare() {
    check("x87-fxch", |a| {
        put_f64(a, DATA, 3.0);
        put_f64(a, DATA + 8, 5.0);
        a.inst(Inst::Fld {
            src: FpOperand::M64(Addr::abs(DATA)),
        });
        a.inst(Inst::Fld {
            src: FpOperand::M64(Addr::abs(DATA + 8)),
        });
        a.inst(Inst::Fld1);
        a.inst(Inst::Fxch { i: 2 });
        a.inst(Inst::Fchs);
        a.inst(Inst::Fabs);
        a.inst(Inst::Fsqrt);
        a.inst(Inst::Fcomi {
            i: 1,
            pop: false,
            unordered: false,
        });
        a.inst(Inst::Setcc {
            cond: Cond::B,
            dst: Rm::Mem(Addr::abs(DATA + 48)),
        });
        a.inst(Inst::Fst {
            dst: FpOperand::M64(Addr::abs(DATA + 56)),
            pop: true,
        });
        a.inst(Inst::Fst {
            dst: FpOperand::M64(Addr::abs(DATA + 64)),
            pop: true,
        });
        a.inst(Inst::Fst {
            dst: FpOperand::M64(Addr::abs(DATA + 72)),
            pop: true,
        });
        a.hlt();
    });
}

#[test]
fn fp_compares_write_every_status_flag() {
    // FCOMI and UCOMISS write all six status flags: OF, SF and AF, set
    // by the compare before them, read back clear.
    let stale_flags = |a: &mut Asm| {
        a.mov_ri(EAX, 0x7FFF_FFF0);
        a.cmp_ri(EAX, -17);
    };
    check("fcomi-flags", |a| {
        a.inst(Inst::Fld1);
        a.inst(Inst::Fldz);
        stale_flags(a);
        a.inst(Inst::Fcomi {
            i: 1,
            pop: false,
            unordered: false,
        });
        a.hlt();
    });
    check("ucomiss-flags", |a| {
        stale_flags(a);
        a.inst(Inst::Ucomiss {
            a: Xmm::new(0),
            b: XmmM::Reg(Xmm::new(1)),
            signaling: false,
        });
        a.hlt();
    });
}

#[test]
fn x87_hot_loop_with_fxch() {
    // The classic compiler pattern the paper's FXCHG elimination
    // targets: a loop juggling the stack top. Runs long enough to heat.
    check("x87-fxch-loop", |a| {
        put_f64(a, DATA, 1.0);
        put_f64(a, DATA + 8, 1.0001);
        a.inst(Inst::Fld {
            src: FpOperand::M64(Addr::abs(DATA)),
        }); // acc
        a.inst(Inst::Fld {
            src: FpOperand::M64(Addr::abs(DATA + 8)),
        }); // factor
        a.mov_ri(ECX, 400);
        let top = a.label();
        a.bind(top);
        // st0=factor st1=acc: acc *= factor via fxch juggling.
        a.inst(Inst::Fxch { i: 1 }); // st0=acc st1=factor
        a.inst(Inst::Farith {
            op: FpArithOp::Mul,
            form: FpArithForm::St0Sti(1),
        }); // acc *= factor
        a.inst(Inst::Fxch { i: 1 }); // st0=factor again
        a.dec(ECX);
        a.jcc(Cond::Ne, top);
        a.inst(Inst::Fst {
            dst: FpOperand::St(1),
            pop: true,
        });
        a.inst(Inst::Fst {
            dst: FpOperand::M64(Addr::abs(DATA + 16)),
            pop: true,
        });
        a.hlt();
    });
}

#[test]
fn fild_fistp_roundtrip() {
    check("x87-int", |a| {
        a.mov_mi(Addr::abs(DATA), -123456);
        a.inst(Inst::Fild {
            src: Addr::abs(DATA),
        });
        a.inst(Inst::Fld1);
        a.inst(Inst::Farith {
            op: FpArithOp::Add,
            form: FpArithForm::StiSt0 { i: 1, pop: true },
        });
        a.inst(Inst::Fistp {
            dst: Addr::abs(DATA + 8),
        });
        // Out-of-range value -> integer indefinite.
        put_f64(a, DATA + 16, 1.0e300);
        a.inst(Inst::Fld {
            src: FpOperand::M64(Addr::abs(DATA + 16)),
        });
        a.inst(Inst::Fistp {
            dst: Addr::abs(DATA + 24),
        });
        a.hlt();
    });
}

#[test]
fn mmx_packed_arithmetic() {
    check("mmx", |a| {
        a.mov_mi(Addr::abs(DATA), 0x0102_0304);
        a.mov_mi(Addr::abs(DATA + 4), 0x0506_0708);
        a.mov_mi(Addr::abs(DATA + 8), 0x1111_1111);
        a.mov_mi(Addr::abs(DATA + 12), 0x2222_2222);
        a.inst(Inst::Movq {
            mm: Mm::new(0),
            src: MmM::Mem(Addr::abs(DATA)),
            to_mm: true,
        });
        a.inst(Inst::Movq {
            mm: Mm::new(1),
            src: MmM::Mem(Addr::abs(DATA + 8)),
            to_mm: true,
        });
        a.inst(Inst::PAlu {
            op: MmxOp::PAdd(1),
            dst: Mm::new(0),
            src: MmM::Reg(Mm::new(1)),
        });
        a.inst(Inst::PAlu {
            op: MmxOp::PSub(2),
            dst: Mm::new(0),
            src: MmM::Mem(Addr::abs(DATA + 8)),
        });
        a.inst(Inst::PAlu {
            op: MmxOp::Pxor,
            dst: Mm::new(1),
            src: MmM::Reg(Mm::new(0)),
        });
        a.inst(Inst::PAlu {
            op: MmxOp::Pmullw,
            dst: Mm::new(1),
            src: MmM::Reg(Mm::new(0)),
        });
        a.inst(Inst::Movq {
            mm: Mm::new(1),
            src: MmM::Mem(Addr::abs(DATA + 16)),
            to_mm: false,
        });
        a.inst(Inst::Movd {
            mm: Mm::new(0),
            rm: Rm::Reg(EBX),
            to_mm: false,
        });
        a.mov_store(Addr::abs(DATA + 24), EBX);
        a.inst(Inst::Emms);
        a.hlt();
    });
}

#[test]
fn fp_then_mmx_mode_switch() {
    // Exercises the FP/MMX aliasing-mode speculation across blocks: an
    // FP block, then an MMX block, then FP again.
    check("fp-mmx-switch", |a| {
        put_f64(a, DATA, 4.0);
        a.inst(Inst::Fld {
            src: FpOperand::M64(Addr::abs(DATA)),
        });
        a.inst(Inst::Fsqrt);
        a.inst(Inst::Fst {
            dst: FpOperand::M64(Addr::abs(DATA + 8)),
            pop: true,
        });
        // Branch to a new block boundary so mode speculation re-checks.
        let l1 = a.label();
        a.jmp(l1);
        a.bind(l1);
        a.mov_ri(EAX, 0x01020304);
        a.inst(Inst::Movd {
            mm: Mm::new(2),
            rm: Rm::Reg(EAX),
            to_mm: true,
        });
        a.inst(Inst::PAlu {
            op: MmxOp::PAdd(2),
            dst: Mm::new(2),
            src: MmM::Reg(Mm::new(2)),
        });
        a.inst(Inst::Movd {
            mm: Mm::new(2),
            rm: Rm::Reg(EBX),
            to_mm: false,
        });
        a.mov_store(Addr::abs(DATA + 16), EBX);
        let l2 = a.label();
        a.jmp(l2);
        a.bind(l2);
        // Back to FP (mode fix path) — after EMMS so the stack is clean.
        a.inst(Inst::Emms);
        a.inst(Inst::Fld1);
        a.inst(Inst::Fst {
            dst: FpOperand::M64(Addr::abs(DATA + 24)),
            pop: true,
        });
        a.hlt();
    });
}

#[test]
fn sse_scalar_math() {
    check("sse-scalar", |a| {
        put_f32(a, DATA, 1.5);
        put_f32(a, DATA + 4, -2.5);
        a.inst(Inst::Movss {
            xmm: Xmm::new(0),
            rm: XmmM::Mem(Addr::abs(DATA)),
            to_xmm: true,
        });
        a.inst(Inst::Movss {
            xmm: Xmm::new(1),
            rm: XmmM::Mem(Addr::abs(DATA + 4)),
            to_xmm: true,
        });
        for (op, off) in [
            (SseOp::Add, 16u32),
            (SseOp::Sub, 20),
            (SseOp::Mul, 24),
            (SseOp::Div, 28),
            (SseOp::Min, 32),
            (SseOp::Max, 36),
        ] {
            a.inst(Inst::Movss {
                xmm: Xmm::new(2),
                rm: XmmM::Reg(Xmm::new(0)),
                to_xmm: true,
            });
            a.inst(Inst::SseArith {
                op,
                scalar: true,
                dst: Xmm::new(2),
                src: XmmM::Reg(Xmm::new(1)),
            });
            a.inst(Inst::Movss {
                xmm: Xmm::new(2),
                rm: XmmM::Mem(Addr::abs(DATA + off)),
                to_xmm: false,
            });
        }
        a.inst(Inst::Sqrtss {
            dst: Xmm::new(3),
            src: XmmM::Reg(Xmm::new(0)),
        });
        a.inst(Inst::Movss {
            xmm: Xmm::new(3),
            rm: XmmM::Mem(Addr::abs(DATA + 40)),
            to_xmm: false,
        });
        // Conversions.
        a.mov_ri(EAX, -77);
        a.inst(Inst::Cvtsi2ss {
            dst: Xmm::new(4),
            src: Rm::Reg(EAX),
        });
        a.inst(Inst::Cvttss2si {
            dst: EBX,
            src: XmmM::Reg(Xmm::new(4)),
        });
        a.mov_store(Addr::abs(DATA + 44), EBX);
        // Compare.
        a.inst(Inst::Ucomiss {
            a: Xmm::new(0),
            b: XmmM::Reg(Xmm::new(1)),
            signaling: false,
        });
        a.inst(Inst::Setcc {
            cond: Cond::A,
            dst: Rm::Mem(Addr::abs(DATA + 48)),
        });
        a.hlt();
    });
}

#[test]
fn sse_packed_math_and_formats() {
    // Packed and scalar ops interleaved: exercises the XMM format
    // speculation and its conversion paths.
    check("sse-packed", |a| {
        for (i, v) in [1.0f32, 2.0, 3.0, 4.0].iter().enumerate() {
            put_f32(a, DATA + i as u32 * 4, *v);
        }
        for (i, v) in [0.5f32, 0.25, -1.0, 8.0].iter().enumerate() {
            put_f32(a, DATA + 16 + i as u32 * 4, *v);
        }
        a.inst(Inst::Movps {
            xmm: Xmm::new(0),
            rm: XmmM::Mem(Addr::abs(DATA)),
            to_xmm: true,
            aligned: true,
        });
        a.inst(Inst::Movps {
            xmm: Xmm::new(1),
            rm: XmmM::Mem(Addr::abs(DATA + 16)),
            to_xmm: true,
            aligned: true,
        });
        a.inst(Inst::SseArith {
            op: SseOp::Add,
            scalar: false,
            dst: Xmm::new(0),
            src: XmmM::Reg(Xmm::new(1)),
        });
        a.inst(Inst::SseArith {
            op: SseOp::Mul,
            scalar: false,
            dst: Xmm::new(0),
            src: XmmM::Mem(Addr::abs(DATA + 16)),
        });
        // Scalar op forces a format conversion on xmm0.
        a.inst(Inst::SseArith {
            op: SseOp::Add,
            scalar: true,
            dst: Xmm::new(0),
            src: XmmM::Reg(Xmm::new(1)),
        });
        // Back to packed.
        a.inst(Inst::Xorps {
            dst: Xmm::new(2),
            src: XmmM::Reg(Xmm::new(2)),
        });
        a.inst(Inst::SseArith {
            op: SseOp::Sub,
            scalar: false,
            dst: Xmm::new(2),
            src: XmmM::Reg(Xmm::new(0)),
        });
        a.inst(Inst::Movps {
            xmm: Xmm::new(2),
            rm: XmmM::Mem(Addr::abs(DATA + 32)),
            to_xmm: false,
            aligned: true,
        });
        a.inst(Inst::Movps {
            xmm: Xmm::new(0),
            rm: XmmM::Mem(Addr::abs(DATA + 48)),
            to_xmm: false,
            aligned: true,
        });
        a.hlt();
    });
}

#[test]
fn x87_stack_depth_across_blocks() {
    // TOS speculation across block boundaries: leave values on the
    // stack, branch, and keep computing — the head checks must pass and
    // rotation must be consistent.
    check("x87-tos-blocks", |a| {
        put_f64(a, DATA, 2.0);
        a.inst(Inst::Fld {
            src: FpOperand::M64(Addr::abs(DATA)),
        });
        a.inst(Inst::Fld1);
        let l = a.label();
        a.jmp(l);
        a.bind(l);
        // New block: stack depth 2, TOS speculated.
        a.inst(Inst::Farith {
            op: FpArithOp::Add,
            form: FpArithForm::St0Sti(1),
        });
        a.inst(Inst::Fst {
            dst: FpOperand::M64(Addr::abs(DATA + 8)),
            pop: true,
        });
        a.inst(Inst::Fst {
            dst: FpOperand::M64(Addr::abs(DATA + 16)),
            pop: true,
        });
        a.hlt();
    });
}
