//! x87, MMX, and SSE templates — the paper's §5 optimizations:
//! TOS/tag-speculated FP-stack mapping onto the flat register file,
//! FXCHG elimination via static renaming, single-Boolean FP↔MMX
//! aliasing-mode speculation, and per-XMM format speculation with
//! explicit conversion code on transitions.

use super::flags_emit::FlagAcc;
use super::mem::{ea, guest_load, guest_store, read_gpr, write_gpr};
use super::{EmitCtx, Sink, Term, Unsupported};
use crate::layout::StubKind;
use crate::state::{
    self, mmx_gr, xmm_hi_fr, xmm_lo_fr, xmm_scalar_fr, GR_FPMODE, GR_FPTAG, GR_FPTOP,
};
use ia32::flags;
use ia32::inst::{
    Addr, FpArithForm, FpArithOp, FpOperand, Inst as I32, MmM, MmxOp, Rm, Size2, SseOp, XmmM,
};
use ia32::regs::{Mm, Xmm};
use ia32::Size;
use ipf::inst::{CmpRel, FXfer, FcmpRel, FmaKind, Op, Src, Target};
use ipf::regs::{Fr, Gr, F0, F1};

// ---------------------------------------------------------------------
// x87 helpers
// ---------------------------------------------------------------------

/// Emits the validity check for `ST(i)`: in speculative mode this only
/// accumulates a block-head requirement; in inline mode (the "special
/// block" rebuilt after a tag mismatch) it emits a runtime tag test at
/// the access point so stack faults occur in precise program order.
fn check_valid(sink: &mut Sink, ctx: &mut EmitCtx<'_>, i: u8) {
    if ctx.fp.inline_checks {
        ctx.fp.uses_fp = true;
        let p = ctx.fp.phys(i);
        let (pv, pe) = (sink.vp(), sink.vp());
        sink.emit(Op::Tbit {
            pt: pv,
            pf: pe,
            r: GR_FPTAG,
            pos: p,
        });
        sink.emit_pred(
            pe,
            Op::Br {
                target: Target::Abs(StubKind::FpStackFault.addr()),
            },
        );
        return;
    }
    if ctx.fp.require_valid(i) {
        // Statically known empty: unconditional stack fault.
        sink.emit(Op::Br {
            target: Target::Abs(StubKind::FpStackFault.addr()),
        });
    }
}

fn check_push(sink: &mut Sink, ctx: &mut EmitCtx<'_>) {
    if ctx.fp.inline_checks {
        ctx.fp.uses_fp = true;
        let p = (ctx.fp.tos() + 7) & 7;
        let (pv, pe) = (sink.vp(), sink.vp());
        sink.emit(Op::Tbit {
            pt: pv,
            pf: pe,
            r: GR_FPTAG,
            pos: p,
        });
        sink.emit_pred(
            pv,
            Op::Br {
                target: Target::Abs(StubKind::FpStackFault.addr()),
            },
        );
        return;
    }
    if ctx.fp.require_empty_for_push() {
        sink.emit(Op::Br {
            target: Target::Abs(StubKind::FpStackFault.addr()),
        });
    }
}

/// Ensures the FP/MMX aliasing mode; mixed blocks pay the full transfer
/// cost the speculation normally avoids (paper §5).
fn ensure_mode(sink: &mut Sink, ctx: &mut EmitCtx<'_>, mmx: bool) {
    if ctx.fp.cur_mmx == mmx {
        return;
    }
    for i in 0..8u8 {
        if mmx {
            sink.emit(Op::Getf {
                kind: FXfer::Sig,
                d: mmx_gr(i),
                f: state::x87_fr(i),
            });
        } else {
            sink.emit(Op::Setf {
                kind: FXfer::Sig,
                f: state::x87_fr(i),
                r: mmx_gr(i),
            });
        }
    }
    sink.mov_imm(GR_FPMODE, mmx as u64);
    if mmx {
        ctx.fp.force_tos_zero();
        sink.mov_imm(GR_FPTOP, 0);
        ctx.fp.mmx_tos_done = true;
    }
    ctx.fp.cur_mmx = mmx;
}

/// Records a push: updates ctx, runtime TOS, and the tag word.
fn do_push(sink: &mut Sink, ctx: &mut EmitCtx<'_>) -> Fr {
    ctx.fp.did_push();
    let dst = ctx.fp.st_fr(0);
    sink.mov_imm(GR_FPTOP, ctx.fp.tos() as u64);
    sink.emit(Op::Or {
        d: GR_FPTAG,
        a: Src::Imm(1i64 << ctx.fp.phys(0)),
        b: GR_FPTAG,
    });
    dst
}

/// Records a pop.
fn do_pop(sink: &mut Sink, ctx: &mut EmitCtx<'_>) {
    let p = ctx.fp.phys(0);
    ctx.fp.did_pop();
    sink.mov_imm(GR_FPTOP, ctx.fp.tos() as u64);
    sink.emit(Op::And {
        d: GR_FPTAG,
        a: Src::Imm(!(1i64 << p) & 0xFF),
        b: GR_FPTAG,
    });
}

/// Loads an FP memory operand, honoring the misalignment plan (loads go
/// through the integer path when avoidance is active).
fn fp_load(sink: &mut Sink, ctx: &mut EmitCtx<'_>, addr_expr: &Addr, single: bool) -> Fr {
    let addr = ea(sink, addr_expr);
    let bytes = if single { 4 } else { 8 };
    let v = guest_load(sink, ctx, addr, Some(addr_expr), bytes);
    let f = sink.vf();
    sink.emit(Op::Setf {
        kind: if single { FXfer::S } else { FXfer::D },
        f,
        r: v,
    });
    f
}

/// Stores an FP value (converting to single if needed).
fn fp_store(sink: &mut Sink, ctx: &mut EmitCtx<'_>, addr_expr: &Addr, single: bool, f: Fr) {
    let g = sink.vg();
    sink.emit(Op::Getf {
        kind: if single { FXfer::S } else { FXfer::D },
        d: g,
        f,
    });
    let addr = ea(sink, addr_expr);
    let bytes = if single { 4 } else { 8 };
    guest_store(sink, ctx, addr, Some(addr_expr), bytes, g);
}

/// Emits the exact double-precision divide `d = a / b` via `frcpa`,
/// three Newton-Raphson iterations, and the Markstein correction.
pub(super) fn emit_fdiv(sink: &mut Sink, d: Fr, a: Fr, b: Fr) {
    let p = sink.vp();
    sink.emit(Op::Frcpa { d, p, a, b });
    for _ in 0..3 {
        let e = sink.vf();
        sink.emit_pred(
            p,
            Op::Fma {
                kind: FmaKind::Fnma,
                d: e,
                a: b,
                b: d,
                c: F1,
            },
        );
        sink.emit_pred(
            p,
            Op::Fma {
                kind: FmaKind::Fma,
                d,
                a: d,
                b: e,
                c: d,
            },
        );
    }
    let q0 = sink.vf();
    sink.emit_pred(
        p,
        Op::Fma {
            kind: FmaKind::Fma,
            d: q0,
            a,
            b: d,
            c: F0,
        },
    );
    let r = sink.vf();
    sink.emit_pred(
        p,
        Op::Fma {
            kind: FmaKind::Fnma,
            d: r,
            a: b,
            b: q0,
            c: a,
        },
    );
    sink.emit_pred(
        p,
        Op::Fma {
            kind: FmaKind::Fma,
            d,
            a: r,
            b: d,
            c: q0,
        },
    );
}

fn fp_arith(sink: &mut Sink, op: FpArithOp, d: Fr, dst: Fr, src: Fr) {
    match op {
        FpArithOp::Add => sink.emit(Op::Fma {
            kind: FmaKind::Fma,
            d,
            a: dst,
            b: F1,
            c: src,
        }),
        FpArithOp::Sub => sink.emit(Op::Fma {
            kind: FmaKind::Fms,
            d,
            a: dst,
            b: F1,
            c: src,
        }),
        FpArithOp::SubR => sink.emit(Op::Fma {
            kind: FmaKind::Fms,
            d,
            a: src,
            b: F1,
            c: dst,
        }),
        FpArithOp::Mul => sink.emit(Op::Fma {
            kind: FmaKind::Fma,
            d,
            a: dst,
            b: src,
            c: F0, // c = f0 is the fmpy pseudo-op (no add performed)
        }),
        FpArithOp::Div | FpArithOp::DivR => {
            // The quotient register must not alias the operands: frcpa
            // writes the approximation into it first.
            let t = sink.vf();
            if op == FpArithOp::Div {
                emit_fdiv(sink, t, dst, src);
            } else {
                emit_fdiv(sink, t, src, dst);
            }
            sink.fmov(d, t);
        }
    }
}

// ---------------------------------------------------------------------
// SSE format helpers
// ---------------------------------------------------------------------

/// Ensures `XMMn` is in scalar format (lane 0 as a converted double in
/// the scalar FR). Emits the conversion when the current format is
/// packed — the cost the paper's format speculation avoids.
fn ensure_scalar(sink: &mut Sink, ctx: &mut EmitCtx<'_>, n: u8) {
    ctx.xmm.touch(n);
    if ctx.xmm.is_scalar(n) {
        return;
    }
    ctx.xmm.conversions += 1;
    let g = sink.vg();
    sink.emit(Op::Getf {
        kind: FXfer::Sig,
        d: g,
        f: xmm_lo_fr(n),
    });
    let lane0 = sink.vg();
    sink.emit(Op::Xt {
        signed: false,
        d: lane0,
        a: g,
        size: 4,
    });
    sink.emit(Op::Setf {
        kind: FXfer::S,
        f: xmm_scalar_fr(n),
        r: lane0,
    });
    ctx.xmm.set_scalar(n, true);
}

/// Ensures `XMMn` is in packed format (lanes raw in lo/hi), writing the
/// scalar FR's value back into lane 0.
fn ensure_packed(sink: &mut Sink, ctx: &mut EmitCtx<'_>, n: u8) {
    ctx.xmm.touch(n);
    if !ctx.xmm.is_scalar(n) {
        return;
    }
    ctx.xmm.conversions += 1;
    let lane0 = sink.vg();
    sink.emit(Op::Getf {
        kind: FXfer::S,
        d: lane0,
        f: xmm_scalar_fr(n),
    });
    let lo = sink.vg();
    sink.emit(Op::Getf {
        kind: FXfer::Sig,
        d: lo,
        f: xmm_lo_fr(n),
    });
    let merged = sink.vg();
    sink.emit(Op::Dep {
        d: merged,
        src: lane0,
        target: lo,
        pos: 0,
        len: 32,
    });
    sink.emit(Op::Setf {
        kind: FXfer::Sig,
        f: xmm_lo_fr(n),
        r: merged,
    });
    ctx.xmm.set_scalar(n, false);
}

/// Reads an XMM-or-memory source in scalar form (a converted double).
fn xmm_src_scalar(sink: &mut Sink, ctx: &mut EmitCtx<'_>, src: &XmmM) -> Fr {
    match src {
        XmmM::Reg(x) => {
            ensure_scalar(sink, ctx, x.num());
            xmm_scalar_fr(x.num())
        }
        XmmM::Mem(a) => fp_load(sink, ctx, a, true),
    }
}

/// Reads an XMM-or-memory source in packed form: returns `(lo, hi)` FRs.
fn xmm_src_packed(sink: &mut Sink, ctx: &mut EmitCtx<'_>, src: &XmmM) -> (Fr, Fr) {
    match src {
        XmmM::Reg(x) => {
            ensure_packed(sink, ctx, x.num());
            (xmm_lo_fr(x.num()), xmm_hi_fr(x.num()))
        }
        XmmM::Mem(a) => {
            let addr = ea(sink, a);
            let lo_v = guest_load(sink, ctx, addr, Some(a), 8);
            let hi_addr = sink.vg();
            sink.emit(Op::Add {
                d: hi_addr,
                a: Src::Imm(8),
                b: addr,
            });
            let hi_v = guest_load(sink, ctx, hi_addr, None, 8);
            let (lo, hi) = (sink.vf(), sink.vf());
            sink.emit(Op::Setf {
                kind: FXfer::Sig,
                f: lo,
                r: lo_v,
            });
            sink.emit(Op::Setf {
                kind: FXfer::Sig,
                f: hi,
                r: hi_v,
            });
            (lo, hi)
        }
    }
}

/// EFLAGS from an FP compare (`FCOMI`/`UCOMISS`): unordered sets
/// ZF|PF|CF, less sets CF, equal sets ZF, and the rest of `written` (the
/// bits the instruction's row says it writes) is cleared.
fn fp_compare_flags(sink: &mut Sink, live: u32, written: u32, a: Fr, b: Fr) {
    if live == 0 {
        return;
    }
    let mut fa = FlagAcc::new(sink);
    let (pu, _po) = (sink.vp(), sink.vp());
    sink.emit(Op::Fcmp {
        rel: FcmpRel::Unord,
        pt: pu,
        pf: _po,
        a,
        b,
    });
    fa.or_pred(sink, pu, flags::ZF | flags::PF | flags::CF);
    let (pl, _pnl) = (sink.vp(), sink.vp());
    sink.emit(Op::Fcmp {
        rel: FcmpRel::Lt,
        pt: pl,
        pf: _pnl,
        a,
        b,
    });
    fa.or_pred(sink, pl, flags::CF);
    let (pe, _pne) = (sink.vp(), sink.vp());
    sink.emit(Op::Fcmp {
        rel: FcmpRel::Eq,
        pt: pe,
        pf: _pne,
        a,
        b,
    });
    fa.or_pred(sink, pe, flags::ZF);
    fa.commit(sink, written, None);
}

/// Truncating f64→i32 with the IA-32 "integer indefinite" (0x80000000)
/// on overflow/NaN. Returns a GR holding the zero-extended result.
fn fcvt_to_i32(sink: &mut Sink, f: Fr) -> Gr {
    let t = sink.vf();
    sink.emit(Op::FcvtFx {
        d: t,
        a: f,
        trunc: true,
    });
    let g = sink.vg();
    sink.emit(Op::Getf {
        kind: FXfer::Sig,
        d: g,
        f: t,
    });
    let s = sink.vg();
    sink.emit(Op::Xt {
        signed: true,
        d: s,
        a: g,
        size: 4,
    });
    let (p_bad, _p_ok) = (sink.vp(), sink.vp());
    sink.emit(Op::Cmp {
        rel: CmpRel::Ne,
        pt: p_bad,
        pf: _p_ok,
        a: Src::Reg(g),
        b: s,
    });
    sink.emit_pred(
        p_bad,
        Op::Movl {
            d: g,
            imm: 0x8000_0000,
        },
    );
    let out = sink.vg();
    sink.emit(Op::Xt {
        signed: false,
        d: out,
        a: g,
        size: 4,
    });
    out
}

// ---------------------------------------------------------------------
// dispatch
// ---------------------------------------------------------------------

/// Emits the translation of one x87/MMX/SSE instruction.
pub(super) fn emit_fp(
    sink: &mut Sink,
    inst: &I32,
    ctx: &mut EmitCtx<'_>,
) -> Result<Option<Term>, Unsupported> {
    let props = inst.props();
    let live = ctx.live_flags & props.flags_may;
    match inst {
        // ---- x87 ----
        I32::Fld { src } => {
            ensure_mode(sink, ctx, false);
            let v = match src {
                FpOperand::M32(a) => fp_load(sink, ctx, a, true),
                FpOperand::M64(a) => fp_load(sink, ctx, a, false),
                FpOperand::St(i) => {
                    check_valid(sink, ctx, *i);
                    ctx.fp.st_fr(*i)
                }
            };
            check_push(sink, ctx);
            let dst = do_push(sink, ctx);
            sink.fmov(dst, v);
        }
        I32::Fst { dst, pop } => {
            ensure_mode(sink, ctx, false);
            check_valid(sink, ctx, 0);
            let v = ctx.fp.st_fr(0);
            match dst {
                FpOperand::M32(a) => fp_store(sink, ctx, a, true, v),
                FpOperand::M64(a) => fp_store(sink, ctx, a, false, v),
                FpOperand::St(i) => {
                    check_valid(sink, ctx, *i);
                    let d = ctx.fp.st_fr(*i);
                    sink.fmov(d, v);
                }
            }
            if *pop {
                do_pop(sink, ctx);
            }
        }
        I32::Fild { src } => {
            ensure_mode(sink, ctx, false);
            let addr = ea(sink, src);
            let raw = guest_load(sink, ctx, addr, Some(src), 4);
            let s = sink.vg();
            sink.emit(Op::Xt {
                signed: true,
                d: s,
                a: raw,
                size: 4,
            });
            let fsig = sink.vf();
            sink.emit(Op::Setf {
                kind: FXfer::Sig,
                f: fsig,
                r: s,
            });
            let fval = sink.vf();
            sink.emit(Op::FcvtXf { d: fval, a: fsig });
            check_push(sink, ctx);
            let dst = do_push(sink, ctx);
            sink.fmov(dst, fval);
        }
        I32::Fistp { dst } => {
            ensure_mode(sink, ctx, false);
            check_valid(sink, ctx, 0);
            let v = ctx.fp.st_fr(0);
            let out = fcvt_to_i32(sink, v);
            let addr = ea(sink, dst);
            guest_store(sink, ctx, addr, Some(dst), 4, out);
            do_pop(sink, ctx);
        }
        I32::Farith { op, form } => {
            ensure_mode(sink, ctx, false);
            match form {
                FpArithForm::St0Mem(sz, a) => {
                    let src = fp_load(sink, ctx, a, *sz == Size2::S);
                    check_valid(sink, ctx, 0);
                    let d = ctx.fp.st_fr(0);
                    fp_arith(sink, *op, d, d, src);
                }
                FpArithForm::St0Sti(i) => {
                    check_valid(sink, ctx, *i);
                    check_valid(sink, ctx, 0);
                    let src = ctx.fp.st_fr(*i);
                    let d = ctx.fp.st_fr(0);
                    fp_arith(sink, *op, d, d, src);
                }
                FpArithForm::StiSt0 { i, pop } => {
                    check_valid(sink, ctx, 0);
                    check_valid(sink, ctx, *i);
                    let src = ctx.fp.st_fr(0);
                    let d = ctx.fp.st_fr(*i);
                    fp_arith(sink, *op, d, d, src);
                    if *pop {
                        do_pop(sink, ctx);
                    }
                }
            }
        }
        I32::Fchs => {
            ensure_mode(sink, ctx, false);
            check_valid(sink, ctx, 0);
            let d = ctx.fp.st_fr(0);
            sink.emit(Op::Fmerge {
                neg: true,
                d,
                a: d,
                b: d,
            });
        }
        I32::Fabs => {
            ensure_mode(sink, ctx, false);
            check_valid(sink, ctx, 0);
            let d = ctx.fp.st_fr(0);
            sink.emit(Op::Fmerge {
                neg: false,
                d,
                a: F0,
                b: d,
            });
        }
        I32::Fsqrt => {
            ensure_mode(sink, ctx, false);
            check_valid(sink, ctx, 0);
            let d = ctx.fp.st_fr(0);
            sink.emit(Op::Fsqrt { d, a: d });
        }
        I32::Fxch { i } => {
            ensure_mode(sink, ctx, false);
            check_valid(sink, ctx, 0);
            check_valid(sink, ctx, *i);
            if ctx.fp.elide_fxch {
                // FXCHG elimination (paper §5): a compile-time rename.
                let p0 = ctx.fp.phys(0) as usize;
                let pi = ctx.fp.phys(*i) as usize;
                ctx.fp.perm.swap(p0, pi);
            } else {
                let a = ctx.fp.st_fr(0);
                let b = ctx.fp.st_fr(*i);
                let t = sink.vf();
                sink.fmov(t, a);
                sink.fmov(a, b);
                sink.fmov(b, t);
            }
        }
        I32::Fld1 => {
            ensure_mode(sink, ctx, false);
            check_push(sink, ctx);
            let dst = do_push(sink, ctx);
            sink.fmov(dst, F1);
        }
        I32::Fldz => {
            ensure_mode(sink, ctx, false);
            check_push(sink, ctx);
            let dst = do_push(sink, ctx);
            sink.fmov(dst, F0);
        }
        I32::Fcomi { i, pop, .. } => {
            ensure_mode(sink, ctx, false);
            check_valid(sink, ctx, 0);
            check_valid(sink, ctx, *i);
            let a = ctx.fp.st_fr(0);
            let b = ctx.fp.st_fr(*i);
            fp_compare_flags(sink, live, props.flags_must, a, b);
            if *pop {
                do_pop(sink, ctx);
            }
        }
        // ---- MMX ----
        I32::Movd { mm, rm, to_mm } => {
            mmx_prologue(sink, ctx);
            if *to_mm {
                let v = match rm {
                    Rm::Reg(r) => read_gpr(sink, *r, Size::D),
                    Rm::Mem(a) => {
                        let addr = ea(sink, a);
                        guest_load(sink, ctx, addr, Some(a), 4)
                    }
                };
                sink.mov(mmx_gr(mm.num()), v);
            } else {
                let v = sink.vg();
                sink.emit(Op::Xt {
                    signed: false,
                    d: v,
                    a: mmx_gr(mm.num()),
                    size: 4,
                });
                match rm {
                    Rm::Reg(r) => write_gpr(sink, ctx, *r, Size::D, v),
                    Rm::Mem(a) => {
                        let addr = ea(sink, a);
                        guest_store(sink, ctx, addr, Some(a), 4, v);
                    }
                }
            }
            mmx_tag(sink, mm.num());
        }
        I32::Movq { mm, src, to_mm } => {
            mmx_prologue(sink, ctx);
            if *to_mm {
                let v = match src {
                    MmM::Reg(m) => mmx_gr(m.num()),
                    MmM::Mem(a) => {
                        let addr = ea(sink, a);
                        guest_load(sink, ctx, addr, Some(a), 8)
                    }
                };
                sink.mov(mmx_gr(mm.num()), v);
                mmx_tag(sink, mm.num());
            } else {
                match src {
                    MmM::Reg(m) => {
                        sink.mov(mmx_gr(m.num()), mmx_gr(mm.num()));
                        mmx_tag(sink, m.num());
                    }
                    MmM::Mem(a) => {
                        let addr = ea(sink, a);
                        guest_store(sink, ctx, addr, Some(a), 8, mmx_gr(mm.num()));
                    }
                }
                mmx_tag(sink, mm.num());
            }
        }
        I32::PAlu { op, dst, src } => {
            mmx_prologue(sink, ctx);
            let b = match src {
                MmM::Reg(m) => mmx_gr(m.num()),
                MmM::Mem(a) => {
                    let addr = ea(sink, a);
                    guest_load(sink, ctx, addr, Some(a), 8)
                }
            };
            let d = mmx_gr(dst.num());
            emit_palu(sink, *op, d, d, b);
            mmx_tag(sink, dst.num());
        }
        I32::Emms => {
            ctx.fp.uses_mmx = true;
            sink.mov_imm(GR_FPTAG, 0);
            sink.mov_imm(GR_FPMODE, 0);
            ctx.fp.cur_mmx = false;
            ctx.fp.known_valid = 0;
            ctx.fp.known_empty = 0xFF;
        }
        // ---- SSE ----
        I32::Movss { xmm, rm, to_xmm } => {
            if *to_xmm {
                match rm {
                    XmmM::Mem(a) => {
                        // Full redefinition: lanes 1-3 zeroed.
                        let addr = ea(sink, a);
                        let v = guest_load(sink, ctx, addr, Some(a), 4);
                        let n = xmm.num();
                        sink.emit(Op::Setf {
                            kind: FXfer::Sig,
                            f: xmm_lo_fr(n),
                            r: v,
                        });
                        sink.fmov(xmm_hi_fr(n), F0);
                        sink.emit(Op::Setf {
                            kind: FXfer::S,
                            f: xmm_scalar_fr(n),
                            r: v,
                        });
                        ctx.xmm.set_scalar(n, true);
                    }
                    XmmM::Reg(x) => {
                        // Lane 0 only; other lanes preserved.
                        ensure_scalar(sink, ctx, x.num());
                        ensure_scalar(sink, ctx, xmm.num());
                        sink.fmov(xmm_scalar_fr(xmm.num()), xmm_scalar_fr(x.num()));
                    }
                }
            } else {
                let n = xmm.num();
                ctx.xmm.touch(n);
                let v = sink.vg();
                if ctx.xmm.is_scalar(n) {
                    sink.emit(Op::Getf {
                        kind: FXfer::S,
                        d: v,
                        f: xmm_scalar_fr(n),
                    });
                } else {
                    let raw = sink.vg();
                    sink.emit(Op::Getf {
                        kind: FXfer::Sig,
                        d: raw,
                        f: xmm_lo_fr(n),
                    });
                    sink.emit(Op::Xt {
                        signed: false,
                        d: v,
                        a: raw,
                        size: 4,
                    });
                }
                match rm {
                    XmmM::Mem(a) => {
                        let addr = ea(sink, a);
                        guest_store(sink, ctx, addr, Some(a), 4, v);
                    }
                    XmmM::Reg(x) => {
                        ensure_scalar(sink, ctx, x.num());
                        sink.emit(Op::Setf {
                            kind: FXfer::S,
                            f: xmm_scalar_fr(x.num()),
                            r: v,
                        });
                    }
                }
            }
        }
        I32::Movps {
            xmm, rm, to_xmm, ..
        } => {
            let n = xmm.num();
            if *to_xmm {
                match rm {
                    XmmM::Mem(a) => {
                        let addr = ea(sink, a);
                        let lo_v = guest_load(sink, ctx, addr, Some(a), 8);
                        let hi_addr = sink.vg();
                        sink.emit(Op::Add {
                            d: hi_addr,
                            a: Src::Imm(8),
                            b: addr,
                        });
                        let hi_v = guest_load(sink, ctx, hi_addr, None, 8);
                        sink.emit(Op::Setf {
                            kind: FXfer::Sig,
                            f: xmm_lo_fr(n),
                            r: lo_v,
                        });
                        sink.emit(Op::Setf {
                            kind: FXfer::Sig,
                            f: xmm_hi_fr(n),
                            r: hi_v,
                        });
                        ctx.xmm.set_scalar(n, false);
                    }
                    XmmM::Reg(x) => {
                        ctx.xmm.touch(x.num());
                        sink.fmov(xmm_scalar_fr(n), xmm_scalar_fr(x.num()));
                        sink.fmov(xmm_lo_fr(n), xmm_lo_fr(x.num()));
                        sink.fmov(xmm_hi_fr(n), xmm_hi_fr(x.num()));
                        ctx.xmm.set_scalar(n, ctx.xmm.is_scalar(x.num()));
                    }
                }
            } else {
                ensure_packed(sink, ctx, n);
                match rm {
                    XmmM::Mem(a) => {
                        let lo_v = sink.vg();
                        sink.emit(Op::Getf {
                            kind: FXfer::Sig,
                            d: lo_v,
                            f: xmm_lo_fr(n),
                        });
                        let hi_v = sink.vg();
                        sink.emit(Op::Getf {
                            kind: FXfer::Sig,
                            d: hi_v,
                            f: xmm_hi_fr(n),
                        });
                        let addr = ea(sink, a);
                        guest_store(sink, ctx, addr, Some(a), 8, lo_v);
                        let hi_addr = sink.vg();
                        sink.emit(Op::Add {
                            d: hi_addr,
                            a: Src::Imm(8),
                            b: addr,
                        });
                        guest_store(sink, ctx, hi_addr, None, 8, hi_v);
                    }
                    XmmM::Reg(x) => {
                        let xn = x.num();
                        sink.fmov(xmm_lo_fr(xn), xmm_lo_fr(n));
                        sink.fmov(xmm_hi_fr(xn), xmm_hi_fr(n));
                        ctx.xmm.set_scalar(xn, false);
                    }
                }
            }
        }
        I32::SseArith {
            op,
            scalar,
            dst,
            src,
        } => {
            let n = dst.num();
            if *scalar {
                let s = xmm_src_scalar(sink, ctx, src);
                ensure_scalar(sink, ctx, n);
                let d = xmm_scalar_fr(n);
                let t = sink.vf();
                match op {
                    SseOp::Add => sink.emit(Op::Fma {
                        kind: FmaKind::Fma,
                        d: t,
                        a: d,
                        b: F1,
                        c: s,
                    }),
                    SseOp::Sub => sink.emit(Op::Fma {
                        kind: FmaKind::Fms,
                        d: t,
                        a: d,
                        b: F1,
                        c: s,
                    }),
                    SseOp::Mul => sink.emit(Op::Fma {
                        kind: FmaKind::Fma,
                        d: t,
                        a: d,
                        b: s,
                        c: F0,
                    }),
                    SseOp::Div => emit_fdiv(sink, t, d, s),
                    SseOp::Min => sink.emit(Op::Fminmax {
                        max: false,
                        parallel: false,
                        d: t,
                        a: d,
                        b: s,
                    }),
                    SseOp::Max => sink.emit(Op::Fminmax {
                        max: true,
                        parallel: false,
                        d: t,
                        a: d,
                        b: s,
                    }),
                }
                if matches!(op, SseOp::Min | SseOp::Max) {
                    sink.fmov(d, t);
                } else {
                    // Round to single precision like the hardware op.
                    sink.emit(Op::FnormS { d, a: t });
                }
            } else {
                let (slo, shi) = xmm_src_packed(sink, ctx, src);
                ensure_packed(sink, ctx, n);
                let (dlo, dhi) = (xmm_lo_fr(n), xmm_hi_fr(n));
                for (d, s) in [(dlo, slo), (dhi, shi)] {
                    match op {
                        SseOp::Add => sink.emit(Op::Fpma {
                            kind: FmaKind::Fma,
                            d,
                            a: d,
                            b: F1,
                            c: s,
                        }),
                        SseOp::Sub => sink.emit(Op::Fpma {
                            kind: FmaKind::Fms,
                            d,
                            a: d,
                            b: F1,
                            c: s,
                        }),
                        SseOp::Mul => sink.emit(Op::Fpma {
                            kind: FmaKind::Fma,
                            d,
                            a: d,
                            b: s,
                            c: F0,
                        }),
                        SseOp::Div => sink.emit(Op::Fpdiv { d, a: d, b: s }),
                        SseOp::Min => sink.emit(Op::Fminmax {
                            max: false,
                            parallel: true,
                            d,
                            a: d,
                            b: s,
                        }),
                        SseOp::Max => sink.emit(Op::Fminmax {
                            max: true,
                            parallel: true,
                            d,
                            a: d,
                            b: s,
                        }),
                    }
                }
            }
        }
        I32::Xorps { dst, src } => {
            let n = dst.num();
            let (slo, shi) = xmm_src_packed(sink, ctx, src);
            ensure_packed(sink, ctx, n);
            for (d, s) in [(xmm_lo_fr(n), slo), (xmm_hi_fr(n), shi)] {
                let (a, b) = (sink.vg(), sink.vg());
                sink.emit(Op::Getf {
                    kind: FXfer::Sig,
                    d: a,
                    f: d,
                });
                sink.emit(Op::Getf {
                    kind: FXfer::Sig,
                    d: b,
                    f: s,
                });
                let x = sink.vg();
                sink.emit(Op::Xor {
                    d: x,
                    a: Src::Reg(a),
                    b,
                });
                sink.emit(Op::Setf {
                    kind: FXfer::Sig,
                    f: d,
                    r: x,
                });
            }
        }
        I32::Sqrtss { dst, src } => {
            let s = xmm_src_scalar(sink, ctx, src);
            ensure_scalar(sink, ctx, dst.num());
            let d = xmm_scalar_fr(dst.num());
            let t = sink.vf();
            sink.emit(Op::Fsqrt { d: t, a: s });
            sink.emit(Op::FnormS { d, a: t });
        }
        I32::Cvtsi2ss { dst, src } => {
            let v = match src {
                Rm::Reg(r) => read_gpr(sink, *r, Size::D),
                Rm::Mem(a) => {
                    let addr = ea(sink, a);
                    guest_load(sink, ctx, addr, Some(a), 4)
                }
            };
            let s = sink.vg();
            sink.emit(Op::Xt {
                signed: true,
                d: s,
                a: v,
                size: 4,
            });
            let fsig = sink.vf();
            sink.emit(Op::Setf {
                kind: FXfer::Sig,
                f: fsig,
                r: s,
            });
            let t = sink.vf();
            sink.emit(Op::FcvtXf { d: t, a: fsig });
            ensure_scalar(sink, ctx, dst.num());
            sink.emit(Op::FnormS {
                d: xmm_scalar_fr(dst.num()),
                a: t,
            });
        }
        I32::Cvttss2si { dst, src } => {
            let s = xmm_src_scalar(sink, ctx, src);
            let out = fcvt_to_i32(sink, s);
            write_gpr(sink, ctx, *dst, Size::D, out);
        }
        I32::Ucomiss { a, b, .. } => {
            ensure_scalar(sink, ctx, a.num());
            let fb = xmm_src_scalar(sink, ctx, b);
            fp_compare_flags(sink, live, props.flags_must, xmm_scalar_fr(a.num()), fb);
        }
        other => {
            let _ = other;
            return Err(Unsupported("x87/MMX/SSE form"));
        }
    }
    Ok(None)
}

/// Common MMX preamble: enter MMX mode, force TOS to 0 once per block.
fn mmx_prologue(sink: &mut Sink, ctx: &mut EmitCtx<'_>) {
    ctx.fp.uses_mmx = true;
    ensure_mode(sink, ctx, true);
    if !ctx.fp.mmx_tos_done {
        ctx.fp.force_tos_zero();
        if ctx.fp.entry_tos != 0 || ctx.fp.uses_fp {
            sink.mov_imm(GR_FPTOP, 0);
        }
        ctx.fp.mmx_tos_done = true;
    }
}

/// Any MMX instruction tags the touched register valid (matching the
/// oracle's aliasing model).
fn mmx_tag(sink: &mut Sink, reg: u8) {
    sink.emit(Op::Or {
        d: GR_FPTAG,
        a: Src::Imm(1i64 << (reg & 7)),
        b: GR_FPTAG,
    });
}

fn emit_palu(sink: &mut Sink, op: MmxOp, d: Gr, a: Gr, b: Gr) {
    match op {
        MmxOp::PAdd(w) => sink.emit(Op::Padd {
            sub: false,
            sz: w,
            d,
            a,
            b,
        }),
        MmxOp::PSub(w) => sink.emit(Op::Padd {
            sub: true,
            sz: w,
            d,
            a,
            b,
        }),
        MmxOp::Pand => sink.emit(Op::And {
            d,
            a: Src::Reg(a),
            b,
        }),
        MmxOp::Por => sink.emit(Op::Or {
            d,
            a: Src::Reg(a),
            b,
        }),
        MmxOp::Pxor => sink.emit(Op::Xor {
            d,
            a: Src::Reg(a),
            b,
        }),
        MmxOp::Pmullw => sink.emit(Op::Pmpy2 { d, a, b }),
    }
}

/// Re-exported for dispatch from [`super::emit`]: `Mm`/`Xmm` are used in
/// the instruction enum patterns above.
#[allow(unused)]
fn _type_uses(_: Mm, _: Xmm, _: FpArithForm) {}

#[allow(unused_variables)]
#[cfg(test)]
mod tests {
    use super::*;
    use crate::templates::{AccessMode, AlignCache, FpCtx, MisalignPlan, XmmCtx};

    fn emit_one(inst: &I32, fp: &mut FpCtx, xmm: &mut XmmCtx) -> Sink {
        let plan = MisalignPlan::uniform(AccessMode::Fast, 0);
        let mut align = AlignCache::default();
        let mut sink = Sink::new();
        let mut ctx = EmitCtx {
            ip: 0x1000,
            next_ip: 0x1002,
            live_flags: 0,
            fp,
            xmm,
            misalign: &plan,
            align: &mut align,
        };
        emit_fp(&mut sink, inst, &mut ctx).expect("template exists");
        sink
    }

    #[test]
    fn fxch_elided_in_hot_mode() {
        let mut fp = FpCtx::new(0, true);
        fp.known_valid = 0xFF; // pretend all valid
        let mut xmm = XmmCtx::new(0);
        let s = emit_one(&I32::Fxch { i: 2 }, &mut fp, &mut xmm);
        assert_eq!(s.inst_count(), 0, "hot FXCH costs zero instructions");
        assert_ne!(fp.perm, [0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn fxch_cold_emits_moves() {
        let mut fp = FpCtx::new(0, false);
        fp.known_valid = 0xFF;
        let mut xmm = XmmCtx::new(0);
        let s = emit_one(&I32::Fxch { i: 2 }, &mut fp, &mut xmm);
        assert_eq!(s.inst_count(), 3, "cold FXCH is three FP moves");
    }

    #[test]
    fn fld_accumulates_head_requirements() {
        let mut fp = FpCtx::new(0, false);
        let mut xmm = XmmCtx::new(0);
        emit_one(&I32::Fld1, &mut fp, &mut xmm);
        assert_eq!(fp.req_empty, 1 << 7, "push target must be empty");
        assert_eq!(fp.tos(), 7);
    }

    #[test]
    fn scalar_to_packed_conversion_counted() {
        let mut fp = FpCtx::new(0, false);
        // XMM0 enters in scalar format; a packed op forces conversion.
        let mut xmm = XmmCtx::new(0b1);
        let s = emit_one(
            &I32::SseArith {
                op: SseOp::Add,
                scalar: false,
                dst: Xmm::new(0),
                src: XmmM::Reg(Xmm::new(1)),
            },
            &mut fp,
            &mut xmm,
        );
        assert_eq!(xmm.conversions, 1);
        assert!(!xmm.fmt & 1 == 1 || xmm.fmt & 1 == 0);
        assert!(s.inst_count() > 2);
    }

    #[test]
    fn scalar_op_with_matching_format_is_cheap() {
        let mut fp = FpCtx::new(0, false);
        let mut xmm = XmmCtx::new(0b11); // both scalar already
        let s = emit_one(
            &I32::SseArith {
                op: SseOp::Mul,
                scalar: true,
                dst: Xmm::new(0),
                src: XmmM::Reg(Xmm::new(1)),
            },
            &mut fp,
            &mut xmm,
        );
        assert_eq!(xmm.conversions, 0, "format speculation hit: no conversion");
        assert!(s.inst_count() <= 3);
    }

    #[test]
    fn mixed_fp_mmx_emits_transition() {
        let mut fp = FpCtx::new(0, false);
        fp.cur_mmx = false;
        let mut xmm = XmmCtx::new(0);
        let s = emit_one(
            &I32::PAlu {
                op: MmxOp::Pxor,
                dst: Mm::new(0),
                src: MmM::Reg(Mm::new(0)),
            },
            &mut fp,
            &mut xmm,
        );
        // 8 getf transfers + mode/top bookkeeping + the op itself.
        assert!(s.inst_count() >= 10);
        assert!(fp.cur_mmx);
    }
}
