//! Integer and control-flow instruction templates.

use super::flags_emit::{
    arith_flags, cond_from_flags, logic_flags, result_cond, ArithKind, FlagAcc,
};
use super::mem::{ea, guest_load, guest_store, read_gpr, snapshot, write_gpr};
use super::{EmitCtx, IndKind, Sink, Term, Unsupported};
use crate::layout::StubKind;
use crate::state::{self, Eflags, GR_ONE};
use ia32::flags;
use ia32::inst::{AluOp, Inst as I32, MulDivOp, Rm, RmI, ShiftCount, ShiftOp};
use ia32::Size;
use ipf::inst::{CmpRel, FXfer, FmaKind, Op, ShiftKind, Src, Target};
use ipf::regs::{Gr, Pr, F0, R0};

/// Reads a register-or-memory operand (zero-extended at `size`).
fn read_rm(sink: &mut Sink, ctx: &mut EmitCtx<'_>, rm: &Rm, size: Size) -> Gr {
    match rm {
        Rm::Reg(r) => read_gpr(sink, *r, size),
        Rm::Mem(a) => {
            let addr = ea(sink, a);
            guest_load(sink, ctx, addr, Some(a), size.bytes() as u8)
        }
    }
}

/// Reads a register, memory, or immediate operand.
fn read_rmi(sink: &mut Sink, ctx: &mut EmitCtx<'_>, rmi: &RmI, size: Size) -> Gr {
    match rmi {
        RmI::Reg(r) => read_gpr(sink, *r, size),
        RmI::Mem(a) => {
            let addr = ea(sink, a);
            guest_load(sink, ctx, addr, Some(a), size.bytes() as u8)
        }
        RmI::Imm(v) => {
            let d = sink.vg();
            sink.mov_imm(d, size.trunc(*v as u32) as u64);
            d
        }
    }
}

/// Truncate-and-zero-extend to `size`.
fn trunc(sink: &mut Sink, v: Gr, size: Size) -> Gr {
    let d = sink.vg();
    sink.emit(Op::Xt {
        signed: false,
        d,
        a: v,
        size: size.bytes() as u8,
    });
    d
}

/// Sign-extend at `size`.
fn sext(sink: &mut Sink, v: Gr, size: Size) -> Gr {
    let d = sink.vg();
    sink.emit(Op::Xt {
        signed: true,
        d,
        a: v,
        size: size.bytes() as u8,
    });
    d
}

/// Writes a result to an `Rm` destination. For memory this is the
/// faulting op and must precede all state updates; the caller orders
/// accordingly by calling this before flag emission when `dst` is
/// memory.
fn write_rm(sink: &mut Sink, ctx: &mut EmitCtx<'_>, rm: &Rm, size: Size, v: Gr) {
    match rm {
        Rm::Reg(r) => write_gpr(sink, ctx, *r, size, v),
        Rm::Mem(a) => {
            let addr = ea(sink, a);
            guest_store(sink, ctx, addr, Some(a), size.bytes() as u8, v);
        }
    }
}

/// Pushes `v` (32-bit): store first, ESP update after (paper Table 1).
fn push32(sink: &mut Sink, ctx: &mut EmitCtx<'_>, v: Gr) {
    let esp = state::guest_gpr(4);
    let new = sink.vg();
    sink.emit(Op::Add {
        d: new,
        a: Src::Imm(-4),
        b: esp,
    });
    let new32 = trunc(sink, new, Size::D);
    guest_store(sink, ctx, new32, None, 4, v);
    sink.mov(esp, new32);
    ctx.align.invalidate_gpr(4);
}

/// Emits an exact unsigned 32-bit divide via `frcpa` + Newton-Raphson +
/// Markstein correction (there is no integer divide on Itanium).
/// Returns `(quotient, remainder)` as 64-bit GRs with 32-bit values.
fn emit_udiv32(sink: &mut Sink, a: Gr, b: Gr) -> (Gr, Gr) {
    let fa_sig = sink.vf();
    let fb_sig = sink.vf();
    sink.emit(Op::Setf {
        kind: FXfer::Sig,
        f: fa_sig,
        r: a,
    });
    sink.emit(Op::Setf {
        kind: FXfer::Sig,
        f: fb_sig,
        r: b,
    });
    let fa = sink.vf();
    let fb = sink.vf();
    sink.emit(Op::FcvtXf { d: fa, a: fa_sig });
    sink.emit(Op::FcvtXf { d: fb, a: fb_sig });
    let y = sink.vf();
    let p = sink.vp();
    sink.emit(Op::Frcpa {
        d: y,
        p,
        a: fa,
        b: fb,
    });
    // Two NR iterations are ample for 32-bit quotients.
    for _ in 0..2 {
        let e = sink.vf();
        sink.emit_pred(
            p,
            Op::Fma {
                kind: FmaKind::Fnma,
                d: e,
                a: fb,
                b: y,
                c: ipf::regs::F1,
            },
        );
        sink.emit_pred(
            p,
            Op::Fma {
                kind: FmaKind::Fma,
                d: y,
                a: y,
                b: e,
                c: y,
            },
        );
    }
    let q0 = sink.vf();
    sink.emit_pred(
        p,
        Op::Fma {
            kind: FmaKind::Fma,
            d: q0,
            a: fa,
            b: y,
            c: F0,
        },
    );
    let qt = sink.vf();
    sink.emit(Op::FcvtFx {
        d: qt,
        a: q0,
        trunc: true,
    });
    let q = sink.vg();
    sink.emit(Op::Getf {
        kind: FXfer::Sig,
        d: q,
        f: qt,
    });
    // r = a - q*b, then correct q into [0, b).
    let qb_f = sink.vf();
    sink.emit(Op::Xma {
        d: qb_f,
        a: qt,
        b: fb_sig,
        c: F0,
        high: false,
    });
    let qb = sink.vg();
    sink.emit(Op::Getf {
        kind: FXfer::Sig,
        d: qb,
        f: qb_f,
    });
    let r = sink.vg();
    sink.emit(Op::Sub {
        d: r,
        a: Src::Reg(a),
        b: qb,
    });
    // If r < 0 (as i64): q -= 1, r += b.
    let p_neg = sink.vp();
    let p_nn = sink.vp();
    sink.emit(Op::Cmp {
        rel: CmpRel::Gt,
        pt: p_neg,
        pf: p_nn,
        a: Src::Imm(0),
        b: r,
    });
    sink.emit_pred(
        p_neg,
        Op::Add {
            d: q,
            a: Src::Imm(-1),
            b: q,
        },
    );
    sink.emit_pred(
        p_neg,
        Op::Add {
            d: r,
            a: Src::Reg(r),
            b,
        },
    );
    // If r >= b: q += 1, r -= b.
    let p_ge = sink.vp();
    let p_lt = sink.vp();
    sink.emit(Op::Cmp {
        rel: CmpRel::Geu,
        pt: p_ge,
        pf: p_lt,
        a: Src::Reg(r),
        b,
    });
    sink.emit_pred(
        p_ge,
        Op::Add {
            d: q,
            a: Src::Imm(1),
            b: q,
        },
    );
    sink.emit_pred(
        p_ge,
        Op::Sub {
            d: r,
            a: Src::Reg(r),
            b,
        },
    );
    (q, r)
}

/// Emits `|v|` of a sign-extended 64-bit value, returning
/// `(abs, p_negative)`.
fn emit_abs(sink: &mut Sink, v: Gr) -> (Gr, Pr) {
    let p_neg = sink.vp();
    let p_nn = sink.vp();
    sink.emit(Op::Cmp {
        rel: CmpRel::Gt,
        pt: p_neg,
        pf: p_nn,
        a: Src::Imm(0),
        b: v,
    });
    let out = sink.vg();
    sink.mov(out, v);
    sink.emit_pred(
        p_neg,
        Op::Sub {
            d: out,
            a: Src::Imm(0),
            b: v,
        },
    );
    (out, p_neg)
}

/// Emits the integer/control-flow translation of one instruction.
pub(super) fn emit_int(
    sink: &mut Sink,
    inst: &I32,
    ctx: &mut EmitCtx<'_>,
) -> Result<Option<Term>, Unsupported> {
    let live = ctx.live_flags & inst.props().flags_may;
    match inst {
        I32::Alu { op, size, dst, src } => {
            let a = read_rm(sink, ctx, dst, *size);
            // Immediate fast path: fold into the Itanium imm-form op.
            let imm_form = matches!(
                op,
                AluOp::Add | AluOp::Sub | AluOp::And | AluOp::Or | AluOp::Xor
            );
            if let (RmI::Imm(v), 0, true) = (src, live, imm_form) {
                let imm = size.trunc(*v as u32) as i64;
                let (d, b) = (sink.vg(), a);
                let a = Src::Imm(if *op == AluOp::Sub { -imm } else { imm });
                sink.emit(match op {
                    AluOp::And => Op::And { d, a, b },
                    AluOp::Or => Op::Or { d, a, b },
                    AluOp::Xor => Op::Xor { d, a, b },
                    _ => Op::Add { d, a, b },
                });
                write_rm(sink, ctx, dst, *size, d);
                return Ok(None);
            }
            let b = read_rmi(sink, ctx, src, *size);
            emit_alu(sink, ctx, *op, *size, a, b, Some(dst), live);
        }
        I32::AluRM { op, size, dst, src } => {
            let a = read_gpr(sink, *dst, *size);
            let addr = ea(sink, src);
            let b = guest_load(sink, ctx, addr, Some(src), size.bytes() as u8);
            emit_alu(sink, ctx, *op, *size, a, b, Some(&Rm::Reg(*dst)), live);
        }
        I32::Test { size, a, b } => {
            let x = read_rm(sink, ctx, a, *size);
            let y = read_rmi(sink, ctx, b, *size);
            let res = sink.vg();
            sink.emit(Op::And {
                d: res,
                a: Src::Reg(x),
                b: y,
            });
            logic_flags(sink, ctx, res, *size, live);
        }
        I32::Mov { size, dst, src } => {
            if let (Rm::Reg(r), RmI::Imm(v), Size::D) = (dst, src, *size) {
                // Direct constant write: the truncation is in the imm.
                let g = crate::state::guest_gpr(r.num());
                sink.mov_imm(g, Size::D.trunc(*v as u32) as u64);
                ctx.align.invalidate_gpr(r.num());
                return Ok(None);
            }
            let v = read_rmi(sink, ctx, src, *size);
            write_rm(sink, ctx, dst, *size, v);
        }
        I32::MovLoad { size, dst, src } => {
            let addr = ea(sink, src);
            let v = guest_load(sink, ctx, addr, Some(src), size.bytes() as u8);
            write_gpr(sink, ctx, *dst, *size, v);
        }
        I32::Movzx { dst, src_size, src } => {
            let v = read_rm(sink, ctx, src, *src_size);
            write_gpr(sink, ctx, *dst, Size::D, v);
        }
        I32::Movsx { dst, src_size, src } => {
            let v = read_rm(sink, ctx, src, *src_size);
            let s = sext(sink, v, *src_size);
            write_gpr(sink, ctx, *dst, Size::D, s);
        }
        I32::Lea { dst, addr } => {
            let v = ea(sink, addr);
            write_gpr(sink, ctx, *dst, Size::D, v);
        }
        I32::Xchg { size, reg, rm } => {
            let a = read_gpr(sink, *reg, *size);
            let a = snapshot(sink, a);
            let b = read_rm(sink, ctx, rm, *size);
            let b = snapshot(sink, b);
            write_rm(sink, ctx, rm, *size, a);
            write_gpr(sink, ctx, *reg, *size, b);
        }
        I32::Push { src } => {
            let v = read_rmi(sink, ctx, src, Size::D);
            push32(sink, ctx, v);
        }
        I32::Pop { dst } => match dst {
            Rm::Reg(r) => {
                let esp = state::guest_gpr(4);
                let v = guest_load(sink, ctx, esp, None, 4);
                let new = sink.vg();
                sink.emit(Op::Add {
                    d: new,
                    a: Src::Imm(4),
                    b: esp,
                });
                let new32 = trunc(sink, new, Size::D);
                sink.mov(esp, new32);
                ctx.align.invalidate_gpr(4);
                write_gpr(sink, ctx, *r, Size::D, v);
            }
            Rm::Mem(_) => return Err(Unsupported("pop to memory")),
        },
        I32::IncDec { inc, size, dst } => {
            emit_inc_dec(sink, ctx, *inc, *size, dst, live);
        }
        I32::Neg { size, dst } => {
            let a = read_rm(sink, ctx, dst, *size);
            let a = if live != 0 { snapshot(sink, a) } else { a };
            let res64 = sink.vg();
            sink.emit(Op::Sub {
                d: res64,
                a: Src::Imm(0),
                b: a,
            });
            let res = trunc(sink, res64, *size);
            write_rm(sink, ctx, dst, *size, res);
            arith_flags(
                sink,
                ctx,
                ArithKind::Sub,
                R0,
                a,
                res64,
                res,
                *size,
                live,
                true,
            );
        }
        I32::Not { size, dst } => {
            let a = read_rm(sink, ctx, dst, *size);
            let res64 = sink.vg();
            sink.emit(Op::Xor {
                d: res64,
                a: Src::Imm(-1),
                b: a,
            });
            let res = trunc(sink, res64, *size);
            write_rm(sink, ctx, dst, *size, res);
        }
        I32::Shift {
            op,
            size,
            dst,
            count,
        } => emit_shift(sink, ctx, *op, *size, dst, count, live),
        I32::ImulRm { dst, src } => {
            let a = read_gpr(sink, *dst, Size::D);
            let b = read_rm(sink, ctx, src, Size::D);
            let p = emit_mul64(sink, a, b, true);
            let res = trunc(sink, p, Size::D);
            write_gpr(sink, ctx, *dst, Size::D, res);
            emit_mul_flags(sink, p, res, true, live);
        }
        I32::ImulRmImm { dst, src, imm } => {
            let a = read_rm(sink, ctx, src, Size::D);
            let b = sink.vg();
            sink.mov_imm(b, *imm as i64 as u64);
            let p = emit_mul64(sink, a, b, true);
            let res = trunc(sink, p, Size::D);
            write_gpr(sink, ctx, *dst, Size::D, res);
            emit_mul_flags(sink, p, res, true, live);
        }
        I32::MulDiv { op, size, src } => {
            if *size != Size::D {
                return Err(Unsupported("byte/word multiply/divide"));
            }
            emit_muldiv32(sink, ctx, *op, src, live)?;
        }
        I32::Cdq => {
            let eax = state::guest_gpr(0);
            let edx = state::guest_gpr(2);
            let t = sext(sink, eax, Size::D);
            let h = sink.vg();
            sink.emit(Op::Shift {
                kind: ShiftKind::Shr,
                d: h,
                a: t,
                count: Src::Imm(32),
            });
            sink.emit(Op::Xt {
                signed: false,
                d: edx,
                a: h,
                size: 4,
            });
            ctx.align.invalidate_gpr(2);
        }
        I32::Cwde => {
            let eax = state::guest_gpr(0);
            let t = sext(sink, eax, Size::W);
            sink.emit(Op::Xt {
                signed: false,
                d: eax,
                a: t,
                size: 4,
            });
            ctx.align.invalidate_gpr(0);
        }
        I32::Jmp { target } => return Ok(Some(Term::Jump { target: *target })),
        I32::JmpInd { src } => {
            let t = read_rm(sink, ctx, src, Size::D);
            return Ok(Some(Term::Indirect {
                eip: t,
                kind: IndKind::Jump,
            }));
        }
        I32::Jcc { cond, target } => {
            let (pt, _) = cond_from_flags(sink, *cond);
            return Ok(Some(Term::CondJump {
                taken_pred: pt,
                taken: *target,
                fallthrough: ctx.next_ip,
            }));
        }
        I32::Call { target } => {
            let ret = sink.vg();
            sink.mov_imm(ret, ctx.next_ip as u64);
            push32(sink, ctx, ret);
            return Ok(Some(Term::Call {
                target: *target,
                ret: ctx.next_ip,
            }));
        }
        I32::CallInd { src } => {
            let t = read_rm(sink, ctx, src, Size::D);
            let ret = sink.vg();
            sink.mov_imm(ret, ctx.next_ip as u64);
            push32(sink, ctx, ret);
            return Ok(Some(Term::Indirect {
                eip: t,
                kind: IndKind::Call { ret: ctx.next_ip },
            }));
        }
        I32::Ret { pop } => {
            let esp = state::guest_gpr(4);
            let t = guest_load(sink, ctx, esp, None, 4);
            let new = sink.vg();
            sink.emit(Op::Add {
                d: new,
                a: Src::Imm(4 + *pop as i64),
                b: esp,
            });
            let new32 = trunc(sink, new, Size::D);
            sink.mov(esp, new32);
            ctx.align.invalidate_gpr(4);
            return Ok(Some(Term::Indirect {
                eip: t,
                kind: IndKind::Ret,
            }));
        }
        I32::Setcc { cond, dst } => {
            let (pt, pf) = cond_from_flags(sink, *cond);
            let v = sink.vg();
            sink.emit_pred(
                pt,
                Op::Add {
                    d: v,
                    a: Src::Imm(1),
                    b: R0,
                },
            );
            sink.emit_pred(
                pf,
                Op::Add {
                    d: v,
                    a: Src::Imm(0),
                    b: R0,
                },
            );
            write_rm(sink, ctx, dst, Size::B, v);
        }
        I32::Cmovcc { cond, dst, src } => {
            // The source is read unconditionally (it may fault), as on
            // hardware.
            let v = read_rm(sink, ctx, src, Size::D);
            let (pt, _) = cond_from_flags(sink, *cond);
            let g = state::guest_gpr(dst.num());
            sink.emit_pred(
                pt,
                Op::Xt {
                    signed: false,
                    d: g,
                    a: v,
                    size: 4,
                },
            );
            ctx.align.invalidate_gpr(dst.num());
        }
        I32::Nop => {}
        I32::Hlt => return Ok(Some(Term::Halt)),
        I32::Ud2 => return Ok(Some(Term::InvalidOp)),
        I32::Int { vector } => return Ok(Some(Term::Syscall { vector: *vector })),
        I32::Movs { size, rep } => emit_string(sink, ctx, *size, *rep, true),
        I32::Stos { size, rep } => emit_string(sink, ctx, *size, *rep, false),
        _ => return Err(Unsupported("non-integer instruction in emit_int")),
    }
    Ok(None)
}

#[allow(clippy::too_many_arguments)]
fn emit_alu(
    sink: &mut Sink,
    ctx: &mut EmitCtx<'_>,
    op: AluOp,
    size: Size,
    a: Gr,
    b: Gr,
    dst: Option<&Rm>,
    live: u32,
) {
    // The flag sequences read the operands after the destination write;
    // snapshot them when the destination may alias an operand.
    let (a, b) = if live != 0 && op.writes_dst() {
        (snapshot(sink, a), snapshot(sink, b))
    } else {
        (a, b)
    };
    let kind = match op {
        AluOp::Add | AluOp::Adc => ArithKind::Add,
        AluOp::Sub | AluOp::Sbb | AluOp::Cmp => ArithKind::Sub,
        AluOp::And | AluOp::Or | AluOp::Xor => ArithKind::Logic,
    };
    let (res64, res) = if matches!(op, AluOp::Adc | AluOp::Sbb) {
        // ADC: a + b + CF; SBB: a - b - CF.
        let cf = sink.vg();
        Eflags::bit_into(sink, cf, 0);
        let s = sink.vg();
        sink.emit(alu_op(op, s, a, b));
        let r = sink.vg();
        sink.emit(alu_op(op, r, s, cf));
        (r, trunc(sink, r, size))
    } else {
        let r = sink.vg();
        sink.emit(alu_op(op, r, a, b));
        // With flags dead, the truncation can be left to the destination
        // write (guest-register writes zero-extend; stores mask).
        if kind == ArithKind::Logic || live == 0 {
            (r, r)
        } else {
            (r, trunc(sink, r, size))
        }
    };
    // Memory destination: the store is the faulting op and must precede
    // the EFLAGS update.
    if op.writes_dst() {
        if let Some(rm) = dst {
            write_rm(sink, ctx, rm, size, res);
        }
    }
    let carry_in = matches!(op, AluOp::Adc | AluOp::Sbb);
    arith_flags(sink, ctx, kind, a, b, res64, res, size, live, !carry_in);
}

/// INC/DEC of `dst` with the `live` flags; returns the truncated
/// result.
fn emit_inc_dec(
    sink: &mut Sink,
    ctx: &mut EmitCtx<'_>,
    inc: bool,
    size: Size,
    dst: &Rm,
    live: u32,
) -> Gr {
    let a = read_rm(sink, ctx, dst, size);
    let a = if live != 0 { snapshot(sink, a) } else { a };
    let res64 = sink.vg();
    sink.emit(Op::Add {
        d: res64,
        a: Src::Imm(if inc { 1 } else { -1 }),
        b: a,
    });
    let res = trunc(sink, res64, size);
    write_rm(sink, ctx, dst, size, res);
    let kind = if inc { ArithKind::Inc } else { ArithKind::Dec };
    arith_flags(sink, ctx, kind, a, GR_ONE, res64, res, size, live, true);
    res
}

/// The Itanium op for `d = a <op> b`; ADC adds and SBB subtracts (their
/// carry is a second op).
fn alu_op(op: AluOp, d: Gr, a: Gr, b: Gr) -> Op {
    let a = Src::Reg(a);
    match op {
        AluOp::Add | AluOp::Adc => Op::Add { d, a, b },
        AluOp::Sub | AluOp::Sbb | AluOp::Cmp => Op::Sub { d, a, b },
        AluOp::And => Op::And { d, a, b },
        AluOp::Or => Op::Or { d, a, b },
        AluOp::Xor => Op::Xor { d, a, b },
    }
}

fn emit_shift(
    sink: &mut Sink,
    ctx: &mut EmitCtx<'_>,
    op: ShiftOp,
    size: Size,
    dst: &Rm,
    count: &ShiftCount,
    live: u32,
) {
    let a = read_rm(sink, ctx, dst, size);
    let a = if live != 0 { snapshot(sink, a) } else { a };
    match count {
        ShiftCount::Imm(c0) => {
            let c = c0 & 0x1F;
            if c == 0 {
                return;
            }
            let (res64, res) = shift_value(sink, op, a, size, Src::Imm(c.into()));
            write_rm(sink, ctx, dst, size, res);
            shift_flags(
                sink,
                op,
                a,
                ShiftAmount::Imm(c),
                res64,
                res,
                size,
                live,
                None,
            );
        }
        ShiftCount::Cl => {
            let cl = read_gpr(sink, ia32::regs::ECX, Size::B);
            let c = sink.vg();
            sink.emit(Op::And {
                d: c,
                a: Src::Imm(0x1F),
                b: cl,
            });
            let p_nz = sink.vp();
            let p_z = sink.vp();
            sink.emit(Op::Cmp {
                rel: CmpRel::Ne,
                pt: p_nz,
                pf: p_z,
                a: Src::Imm(0),
                b: c,
            });
            let (res64, res) = shift_value(sink, op, a, size, Src::Reg(c));
            match dst {
                Rm::Reg(r) => {
                    // c == 0 leaves the value unchanged, so the write is
                    // safe unconditionally.
                    write_gpr(sink, ctx, *r, size, res);
                }
                Rm::Mem(a_expr) => {
                    // Memory store must be skipped for c == 0 (the
                    // interpreter performs no write in that case).
                    let addr = ea(sink, a_expr);
                    sink.emit_pred(
                        p_nz,
                        Op::St {
                            sz: size.bytes() as u8,
                            addr,
                            val: res,
                        },
                    );
                }
            }
            shift_flags(
                sink,
                op,
                a,
                ShiftAmount::Var(c),
                res64,
                res,
                size,
                live,
                Some(p_nz),
            );
        }
    }
}

/// `a <op> count` at `size`, as `(value the flags read CF from,
/// result)`: SHL's untruncated shift, SHR's result, SAR's sign-extended
/// operand.
fn shift_value(sink: &mut Sink, op: ShiftOp, a: Gr, size: Size, count: Src) -> (Gr, Gr) {
    let (kind, a) = match op {
        ShiftOp::Shl => (ShiftKind::Shl, a),
        ShiftOp::Shr => (ShiftKind::ShrU, a),
        ShiftOp::Sar => (ShiftKind::Shr, sext(sink, a, size)),
    };
    let r = sink.vg();
    sink.emit(Op::Shift {
        kind,
        d: r,
        a,
        count,
    });
    match op {
        ShiftOp::Shl => (r, trunc(sink, r, size)),
        ShiftOp::Shr => (r, r),
        ShiftOp::Sar => (a, trunc(sink, r, size)),
    }
}

enum ShiftAmount {
    Imm(u8),
    Var(Gr),
}

/// Bit `pos` of `a`, as 0 or 1.
fn extr_bit(sink: &mut Sink, a: Gr, pos: u8) -> Gr {
    let d = sink.vg();
    sink.emit(Op::Extr {
        d,
        a,
        pos,
        len: 1,
        signed: false,
    });
    d
}

/// Shift flags: CF = last bit out, OF per-op formula, SZP of the result.
/// All oracle-matching, including the quirky IA-32 corner cases.
#[allow(clippy::too_many_arguments)]
fn shift_flags(
    sink: &mut Sink,
    op: ShiftOp,
    a: Gr,
    amount: ShiftAmount,
    res64: Gr,
    res: Gr,
    size: Size,
    live: u32,
    qp: Option<Pr>,
) {
    if live == 0 {
        return;
    }
    let bits = size.bits() as u8;
    let mut fa = FlagAcc::new(sink);
    let shl_of = op == ShiftOp::Shl && live & flags::OF != 0;
    if live & flags::CF != 0 || shl_of {
        let cf = match (op, amount) {
            // Bit `bits` of the untruncated shifted value.
            (ShiftOp::Shl, _) => extr_bit(sink, res64, bits),
            // SHR and SAR: bit c - 1 of the operand, sign-extended for SAR.
            (_, ShiftAmount::Imm(c)) => {
                let a = if op == ShiftOp::Sar {
                    sext(sink, a, size)
                } else {
                    a
                };
                extr_bit(sink, a, c - 1)
            }
            (_, ShiftAmount::Var(c)) => {
                let (kind, a) = if op == ShiftOp::Sar {
                    (ShiftKind::Shr, sext(sink, a, size))
                } else {
                    (ShiftKind::ShrU, a)
                };
                let cm1 = sink.vg();
                sink.emit(Op::Add {
                    d: cm1,
                    a: Src::Imm(-1),
                    b: c,
                });
                let sh = sink.vg();
                sink.emit(Op::Shift {
                    kind,
                    d: sh,
                    a,
                    count: Src::Reg(cm1),
                });
                let t = sink.vg();
                sink.emit(Op::And {
                    d: t,
                    a: Src::Imm(1),
                    b: sh,
                });
                t
            }
        };
        if live & flags::CF != 0 {
            fa.or_bit(sink, cf, 0);
        }
        if shl_of {
            // SHL's OF = CF ^ the result's sign.
            let sf = extr_bit(sink, res, bits - 1);
            let x = sink.vg();
            sink.emit(Op::Xor {
                d: x,
                a: Src::Reg(cf),
                b: sf,
            });
            fa.or_bit(sink, x, 11);
        }
    }
    if op == ShiftOp::Shr && live & flags::OF != 0 {
        // OF = original sign.
        let t = extr_bit(sink, a, bits - 1);
        fa.or_bit(sink, t, 11);
    }
    // SAR clears OF (mask handles it).
    fa.zf_sf(sink, res, size, live);
    fa.pf(sink, res, live);
    // AF is undefined after shifts on hardware; the oracle leaves it
    // cleared via the mask (flags::shl/shr/sar never set it).
    fa.commit(sink, live & flags::STATUS, qp);
}

/// 64-bit product of two 32-bit operands via `xma` (the only integer
/// multiply on Itanium).
fn emit_mul64(sink: &mut Sink, a: Gr, b: Gr, signed: bool) -> Gr {
    let (a, b) = if signed {
        (sext(sink, a, Size::D), sext(sink, b, Size::D))
    } else {
        (a, b)
    };
    let fa = sink.vf();
    let fb = sink.vf();
    sink.emit(Op::Setf {
        kind: FXfer::Sig,
        f: fa,
        r: a,
    });
    sink.emit(Op::Setf {
        kind: FXfer::Sig,
        f: fb,
        r: b,
    });
    let fp = sink.vf();
    sink.emit(Op::Xma {
        d: fp,
        a: fa,
        b: fb,
        c: F0,
        high: false,
    });
    let p = sink.vg();
    sink.emit(Op::Getf {
        kind: FXfer::Sig,
        d: p,
        f: fp,
    });
    p
}

/// CF/OF (+SZP of the low half) for multiplies.
fn emit_mul_flags(sink: &mut Sink, p: Gr, low: Gr, signed: bool, live: u32) {
    if live == 0 {
        return;
    }
    let mut fa = FlagAcc::new(sink);
    if live & (flags::CF | flags::OF) != 0 {
        // The product does not fit the low half: IMUL's differs from
        // its sign extension, MUL's high half is not zero.
        let (pt, pf) = (sink.vp(), sink.vp());
        let (x, y) = if signed {
            (p, sext(sink, p, Size::D))
        } else {
            let h = sink.vg();
            sink.emit(Op::Shift {
                kind: ShiftKind::ShrU,
                d: h,
                a: p,
                count: Src::Imm(32),
            });
            (h, R0)
        };
        sink.emit(Op::Cmp {
            rel: CmpRel::Ne,
            pt,
            pf,
            a: Src::Reg(x),
            b: y,
        });
        fa.or_pred(sink, pt, (flags::CF | flags::OF) & live);
    }
    fa.zf_sf(sink, low, Size::D, live);
    fa.pf(sink, low, live);
    fa.commit(sink, live & flags::STATUS, None);
}

fn emit_muldiv32(
    sink: &mut Sink,
    ctx: &mut EmitCtx<'_>,
    op: MulDivOp,
    src: &Rm,
    live: u32,
) -> Result<(), Unsupported> {
    let eax = state::guest_gpr(0);
    let edx = state::guest_gpr(2);
    let s = read_rm(sink, ctx, src, Size::D);
    match op {
        MulDivOp::Mul | MulDivOp::Imul => {
            let signed = op == MulDivOp::Imul;
            let p = emit_mul64(sink, eax, s, signed);
            let low = trunc(sink, p, Size::D);
            let hi = sink.vg();
            sink.emit(Op::Shift {
                kind: ShiftKind::ShrU,
                d: hi,
                a: p,
                count: Src::Imm(32),
            });
            emit_mul_flags(sink, p, low, signed, live);
            sink.mov(eax, low);
            sink.mov(edx, hi);
            ctx.align.invalidate_gpr(0);
            ctx.align.invalidate_gpr(2);
        }
        MulDivOp::Div => {
            // #DE on zero divisor.
            let (pz, pnz) = (sink.vp(), sink.vp());
            sink.emit(Op::Cmp {
                rel: CmpRel::Eq,
                pt: pz,
                pf: pnz,
                a: Src::Imm(0),
                b: s,
            });
            sink.emit_pred(
                pz,
                Op::Br {
                    target: Target::Abs(StubKind::DivZero.addr()),
                },
            );
            // Fast path requires EDX == 0 (the overwhelmingly common
            // compiler-generated pattern); otherwise single-step the
            // instruction in the engine.
            let (pslow, _pfast) = (sink.vp(), sink.vp());
            sink.emit(Op::Cmp {
                rel: CmpRel::Ne,
                pt: pslow,
                pf: _pfast,
                a: Src::Imm(0),
                b: edx,
            });
            sink.emit_pred(
                pslow,
                Op::Br {
                    target: Target::Abs(StubKind::InterpStep.addr()),
                },
            );
            let (q, r) = emit_udiv32(sink, eax, s);
            sink.emit(Op::Xt {
                signed: false,
                d: eax,
                a: q,
                size: 4,
            });
            sink.emit(Op::Xt {
                signed: false,
                d: edx,
                a: r,
                size: 4,
            });
            ctx.align.invalidate_gpr(0);
            ctx.align.invalidate_gpr(2);
        }
        MulDivOp::Idiv => {
            let (pz, pnz) = (sink.vp(), sink.vp());
            sink.emit(Op::Cmp {
                rel: CmpRel::Eq,
                pt: pz,
                pf: pnz,
                a: Src::Imm(0),
                b: s,
            });
            sink.emit_pred(
                pz,
                Op::Br {
                    target: Target::Abs(StubKind::DivZero.addr()),
                },
            );
            // Fast path requires EDX to be the sign-extension of EAX
            // (the CDQ pattern).
            let a_sx = sext(sink, eax, Size::D);
            let hi = sink.vg();
            sink.emit(Op::Shift {
                kind: ShiftKind::Shr,
                d: hi,
                a: a_sx,
                count: Src::Imm(32),
            });
            let hi32 = trunc(sink, hi, Size::D);
            let (pslow, _pf) = (sink.vp(), sink.vp());
            sink.emit(Op::Cmp {
                rel: CmpRel::Ne,
                pt: pslow,
                pf: _pf,
                a: Src::Reg(hi32),
                b: edx,
            });
            sink.emit_pred(
                pslow,
                Op::Br {
                    target: Target::Abs(StubKind::InterpStep.addr()),
                },
            );
            let b_sx = sext(sink, s, Size::D);
            let (a_abs, a_neg) = emit_abs(sink, a_sx);
            let (b_abs, b_neg) = emit_abs(sink, b_sx);
            let (q, r) = emit_udiv32(sink, a_abs, b_abs);
            // Apply signs: q negative iff signs differ; r takes a's sign.
            let qs = sink.vg();
            sink.mov(qs, q);
            let neg_q = sink.vg();
            sink.emit(Op::Sub {
                d: neg_q,
                a: Src::Imm(0),
                b: q,
            });
            // signs differ = a_neg XOR b_neg; predicates cannot be
            // XORed directly, so compute via 0/1 registers.
            let an = sink.vg();
            sink.mov(an, R0);
            sink.emit_pred(
                a_neg,
                Op::Add {
                    d: an,
                    a: Src::Imm(1),
                    b: R0,
                },
            );
            let bn = sink.vg();
            sink.mov(bn, R0);
            sink.emit_pred(
                b_neg,
                Op::Add {
                    d: bn,
                    a: Src::Imm(1),
                    b: R0,
                },
            );
            let x = sink.vg();
            sink.emit(Op::Xor {
                d: x,
                a: Src::Reg(an),
                b: bn,
            });
            let (p_diff, _pd) = (sink.vp(), sink.vp());
            sink.emit(Op::Cmp {
                rel: CmpRel::Ne,
                pt: p_diff,
                pf: _pd,
                a: Src::Imm(0),
                b: x,
            });
            sink.emit_pred(
                p_diff,
                Op::Add {
                    d: qs,
                    a: Src::Imm(0),
                    b: neg_q,
                },
            );
            let rs = sink.vg();
            sink.mov(rs, r);
            let neg_r = sink.vg();
            sink.emit(Op::Sub {
                d: neg_r,
                a: Src::Imm(0),
                b: r,
            });
            sink.emit_pred(
                a_neg,
                Op::Add {
                    d: rs,
                    a: Src::Imm(0),
                    b: neg_r,
                },
            );
            // #DE if the quotient does not fit i32 (INT_MIN / -1).
            let qt = sext(sink, qs, Size::D);
            let q32 = sink.vg();
            sink.emit(Op::Xt {
                signed: true,
                d: q32,
                a: qs,
                size: 4,
            });
            let (p_ovf, _po) = (sink.vp(), sink.vp());
            sink.emit(Op::Cmp {
                rel: CmpRel::Ne,
                pt: p_ovf,
                pf: _po,
                a: Src::Reg(qt),
                b: q32,
            });
            sink.emit_pred(
                p_ovf,
                Op::Br {
                    target: Target::Abs(StubKind::DivZero.addr()),
                },
            );
            sink.emit(Op::Xt {
                signed: false,
                d: eax,
                a: qs,
                size: 4,
            });
            sink.emit(Op::Xt {
                signed: false,
                d: edx,
                a: rs,
                size: 4,
            });
            ctx.align.invalidate_gpr(0);
            ctx.align.invalidate_gpr(2);
        }
    }
    Ok(())
}

/// `MOVS`/`STOS` with optional `REP` as an inline loop. State updates
/// trail each element's store so the sequence is restartable on faults,
/// exactly like the hardware semantics.
fn emit_string(sink: &mut Sink, ctx: &mut EmitCtx<'_>, size: Size, rep: bool, movs: bool) {
    let esi = state::guest_gpr(6);
    let edi = state::guest_gpr(7);
    let ecx = state::guest_gpr(1);
    let n = size.bytes() as i64;
    // Step from DF (bit 10).
    let (p_df, p_up) = Eflags::test(sink, 10);
    let step = sink.vg();
    sink.emit_pred(
        p_up,
        Op::Add {
            d: step,
            a: Src::Imm(n),
            b: R0,
        },
    );
    sink.emit_pred(
        p_df,
        Op::Add {
            d: step,
            a: Src::Imm(-n),
            b: R0,
        },
    );
    let (top, done) = (sink.local_label(), sink.local_label());
    if rep {
        sink.bind(top);
        let (p_done, _p) = (sink.vp(), sink.vp());
        sink.emit(Op::Cmp {
            rel: CmpRel::Eq,
            pt: p_done,
            pf: _p,
            a: Src::Imm(0),
            b: ecx,
        });
        sink.emit_pred(
            p_done,
            Op::Br {
                target: Target::Label(done),
            },
        );
    }
    let v = if movs {
        guest_load(sink, ctx, esi, None, size.bytes() as u8)
    } else {
        read_gpr(sink, ia32::regs::EAX, size)
    };
    guest_store(sink, ctx, edi, None, size.bytes() as u8, v);
    if movs {
        let t = sink.vg();
        sink.emit(Op::Add {
            d: t,
            a: Src::Reg(esi),
            b: step,
        });
        sink.emit(Op::Xt {
            signed: false,
            d: esi,
            a: t,
            size: 4,
        });
    }
    let t = sink.vg();
    sink.emit(Op::Add {
        d: t,
        a: Src::Reg(edi),
        b: step,
    });
    sink.emit(Op::Xt {
        signed: false,
        d: edi,
        a: t,
        size: 4,
    });
    if rep {
        let t = sink.vg();
        sink.emit(Op::Add {
            d: t,
            a: Src::Imm(-1),
            b: ecx,
        });
        sink.emit(Op::Xt {
            signed: false,
            d: ecx,
            a: t,
            size: 4,
        });
        sink.emit(Op::Br {
            target: Target::Label(top),
        });
        sink.bind(done);
    }
    ctx.align.invalidate_gpr(1);
    ctx.align.invalidate_gpr(6);
    ctx.align.invalidate_gpr(7);
}

/// Maps an IA-32 condition to an Itanium compare relation over the
/// subtraction operands, when one exists.
fn cond_to_rel(cond: ia32::Cond) -> Option<(CmpRel, bool)> {
    use ia32::Cond as C;
    // (relation, needs signed operands)
    Some(match cond {
        C::E => (CmpRel::Eq, false),
        C::Ne => (CmpRel::Ne, false),
        C::B => (CmpRel::Ltu, false),
        C::Ae => (CmpRel::Geu, false),
        C::A => (CmpRel::Gtu, false),
        C::Be => (CmpRel::Leu, false),
        C::L => (CmpRel::Lt, true),
        C::Ge => (CmpRel::Ge, true),
        C::G => (CmpRel::Gt, true),
        C::Le => (CmpRel::Le, true),
        _ => return None,
    })
}

/// The fused compare+branch emission (see [`super::emit_fused_cmp_jcc`]).
pub(super) fn try_fuse(
    sink: &mut Sink,
    alu: &I32,
    cond: ia32::Cond,
    ctx: &mut EmitCtx<'_>,
) -> Option<Pr> {
    sink.set_ip(ctx.ip);
    let live = ctx.live_flags & alu.props().flags_must;
    match alu {
        // cmp a, b + jcc — the canonical case: one Itanium cmp.
        I32::Alu {
            op: AluOp::Cmp,
            size,
            dst,
            src,
        } => {
            let (rel, signed) = cond_to_rel(cond)?;
            let a = read_rm(sink, ctx, dst, *size);
            // Immediate compare fast path (flags fully dead).
            if live == 0 {
                if let RmI::Imm(v) = src {
                    let imm = if signed {
                        size.sext(*v as u32) as i64
                    } else {
                        size.trunc(*v as u32) as i64
                    };
                    let a = if signed { sext(sink, a, *size) } else { a };
                    let (pt, pf) = (sink.vp(), sink.vp());
                    // CmpImm evaluates rel(imm, b): swap the relation.
                    let srel = match rel {
                        CmpRel::Lt => CmpRel::Gt,
                        CmpRel::Gt => CmpRel::Lt,
                        CmpRel::Le => CmpRel::Ge,
                        CmpRel::Ge => CmpRel::Le,
                        CmpRel::Ltu => CmpRel::Gtu,
                        CmpRel::Gtu => CmpRel::Ltu,
                        CmpRel::Leu => CmpRel::Geu,
                        CmpRel::Geu => CmpRel::Leu,
                        other => other,
                    };
                    sink.emit(Op::Cmp {
                        rel: srel,
                        pt,
                        pf,
                        a: Src::Imm(imm),
                        b: a,
                    });
                    return Some(pt);
                }
            }
            let b = read_rmi(sink, ctx, src, *size);
            // Any still-live flags must be materialized too — on the
            // zero-extended operands: the flag recipes read carry and
            // borrow out of the high bits of the 64-bit result, which
            // sign-extended operands would corrupt.
            if live != 0 {
                let r = sink.vg();
                sink.emit(Op::Sub {
                    d: r,
                    a: Src::Reg(a),
                    b,
                });
                let rt = trunc(sink, r, *size);
                arith_flags(sink, ctx, ArithKind::Sub, a, b, r, rt, *size, live, true);
            }
            let (a, b) = if signed {
                (sext(sink, a, *size), sext(sink, b, *size))
            } else {
                (a, b)
            };
            let (pt, pf) = (sink.vp(), sink.vp());
            sink.emit(Op::Cmp {
                rel,
                pt,
                pf,
                a: Src::Reg(a),
                b,
            });
            Some(pt)
        }
        // test a, b + je/jne/js/jns.
        I32::Test { size, a, b } => {
            use ia32::Cond as C;
            if !matches!(cond, C::E | C::Ne | C::S | C::Ns) {
                return None;
            }
            let x = read_rm(sink, ctx, a, *size);
            let y = read_rmi(sink, ctx, b, *size);
            let r = sink.vg();
            sink.emit(Op::And {
                d: r,
                a: Src::Reg(x),
                b: y,
            });
            if live != 0 {
                logic_flags(sink, ctx, r, *size, live);
            }
            let (pt, pf) = (sink.vp(), sink.vp());
            match cond {
                C::E => sink.emit(Op::Cmp {
                    rel: CmpRel::Eq,
                    pt,
                    pf,
                    a: Src::Reg(r),
                    b: R0,
                }),
                C::Ne => sink.emit(Op::Cmp {
                    rel: CmpRel::Ne,
                    pt,
                    pf,
                    a: Src::Reg(r),
                    b: R0,
                }),
                C::S | C::Ns => {
                    sink.emit(Op::Tbit {
                        pt,
                        pf,
                        r,
                        pos: size.bits() as u8 - 1,
                    });
                }
                _ => unreachable!(),
            }
            Some(if cond == C::Ns { pf } else { pt })
        }
        // dec/inc r + jne/je/js/jns — the classic loop-closing pattern.
        I32::IncDec { inc, size, dst } => {
            use ia32::Cond as C;
            if !matches!(cond, C::E | C::Ne | C::S | C::Ns) {
                return None;
            }
            if cond.flags_read() & flags::CF != 0 {
                return None; // INC/DEC do not write CF
            }
            let res = emit_inc_dec(sink, ctx, *inc, *size, dst, live);
            Some(result_cond(sink, res, *size, cond))
        }
        // sub/and/or/xor + result-based conditions: emit the ALU in full
        // (including the destination write), then compare the result.
        I32::Alu {
            op: op @ (AluOp::Sub | AluOp::And | AluOp::Or | AluOp::Xor),
            size,
            dst,
            src,
        } => {
            use ia32::Cond as C;
            if !matches!(cond, C::E | C::Ne | C::S | C::Ns) {
                return None;
            }
            let a = read_rm(sink, ctx, dst, *size);
            let b = read_rmi(sink, ctx, src, *size);
            let (a, b) = if live != 0 {
                (snapshot(sink, a), snapshot(sink, b))
            } else {
                (a, b)
            };
            let res = {
                let r = sink.vg();
                sink.emit(alu_op(*op, r, a, b));
                if *op == AluOp::Sub {
                    let rt = trunc(sink, r, *size);
                    write_rm(sink, ctx, dst, *size, rt);
                    if live != 0 {
                        arith_flags(sink, ctx, ArithKind::Sub, a, b, r, rt, *size, live, true);
                    }
                    rt
                } else {
                    write_rm(sink, ctx, dst, *size, r);
                    if live != 0 {
                        logic_flags(sink, ctx, r, *size, live);
                    }
                    r
                }
            };
            Some(result_cond(sink, res, *size, cond))
        }
        _ => None,
    }
}
