//! EFLAGS materialization sequences.
//!
//! Computing IA-32 flags on Itanium is pure overhead — several micro-ops
//! per flag — which is why the translator's liveness analysis only
//! materializes *live* bits, and why the fused compare+branch path (in
//! [`super::int`]) skips EFLAGS entirely. These helpers are shared by
//! the cold and hot phases.

use super::Sink;
use crate::state::GR_EFLAGS;
use ia32::flags;
use ia32::Size;
use ipf::inst::{CmpRel, Op, Src};
use ipf::regs::{Gr, Pr, R0};

/// Accumulates flag bits into a scratch register, then merges them into
/// the canonical EFLAGS register, clearing exactly the bits in the mask.
pub(super) struct FlagAcc {
    acc: Gr,
    started: bool,
}

impl FlagAcc {
    pub(super) fn new(sink: &mut Sink) -> FlagAcc {
        let acc = sink.vg();
        sink.mov(acc, R0);
        FlagAcc { acc, started: true }
    }

    /// ORs constant `bits` into the accumulator when `pt` is true.
    pub(super) fn or_pred(&mut self, sink: &mut Sink, pt: Pr, bits: u32) {
        sink.emit_pred(
            pt,
            Op::Or {
                d: self.acc,
                a: Src::Imm(bits as i64),
                b: self.acc,
            },
        );
    }

    /// Deposits a 0/1 register value at flag position `pos` and ORs it in.
    pub(super) fn or_bit(&mut self, sink: &mut Sink, bit01: Gr, pos: u8) {
        let t = sink.vg();
        sink.emit(Op::DepZ {
            d: t,
            src: bit01,
            pos,
            len: 1,
        });
        sink.emit(Op::Or {
            d: self.acc,
            a: Src::Reg(self.acc),
            b: t,
        });
    }

    /// Merges into EFLAGS: `r41 = (r41 & !mask) | acc`, optionally
    /// predicated (variable shifts leave flags untouched on zero count).
    pub(super) fn commit(self, sink: &mut Sink, mask: u32, qp: Option<Pr>) {
        debug_assert!(self.started);
        let cleared = sink.vg();
        let qp = qp.unwrap_or(ipf::regs::P0);
        sink.emit_pred(
            qp,
            Op::And {
                d: cleared,
                a: Src::Imm(!(mask as i64) & 0xFFFF_FFFF),
                b: GR_EFLAGS,
            },
        );
        sink.emit_pred(
            qp,
            Op::Or {
                d: GR_EFLAGS,
                a: Src::Reg(cleared),
                b: self.acc,
            },
        );
    }
}

/// Arithmetic-flag families.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(super) enum ArithKind {
    /// `ADD`/`ADC` (carry = bit `size` of the 64-bit sum).
    Add,
    /// `SUB`/`SBB`/`CMP`/`NEG` (borrow = sign of the 64-bit difference).
    Sub,
    /// Logic ops: CF/OF/AF cleared.
    Logic,
    /// `INC` (CF untouched).
    Inc,
    /// `DEC` (CF untouched).
    Dec,
}

/// Emits the flag updates for an arithmetic result.
///
/// * `a`, `b` — operands, zero-extended to `size` (64-bit registers).
///   For `Inc`/`Dec`, `b` should be [`GR_ONE`]. For `NEG`, pass
///   `a` = the operand and kind [`ArithKind::Sub`] with `b` = operand
///   and `a` = `r0` swapped by the caller.
/// * `res64` — the untruncated 64-bit arithmetic result.
/// * `res` — the result truncated (and zero-extended) to `size`.
/// * `live` — the flag bits to materialize (already masked to what the
///   instruction architecturally writes).
/// * `qp` — optional gate (variable shift counts of zero skip updates).
#[allow(clippy::too_many_arguments)]
pub(super) fn arith_flags(
    sink: &mut Sink,
    kind: ArithKind,
    a: Gr,
    b: Gr,
    res64: Gr,
    res: Gr,
    size: Size,
    live: u32,
    qp: Option<Pr>,
) {
    if live == 0 {
        return;
    }
    let mut fa = FlagAcc::new(sink);
    let bits = size.bits() as u8;

    if live & flags::CF != 0 {
        match kind {
            ArithKind::Add => {
                // Carry out = bit `size` of the 64-bit sum.
                let pt = sink.vp();
                let pf = sink.vp();
                sink.emit(Op::Tbit {
                    pt,
                    pf,
                    r: res64,
                    pos: bits,
                });
                fa.or_pred(sink, pt, flags::CF);
            }
            ArithKind::Sub => {
                // Borrow = the 64-bit difference went negative.
                let pt = sink.vp();
                let pf = sink.vp();
                sink.emit(Op::Tbit {
                    pt,
                    pf,
                    r: res64,
                    pos: 63,
                });
                fa.or_pred(sink, pt, flags::CF);
            }
            ArithKind::Logic => {} // cleared by the mask
            ArithKind::Inc | ArithKind::Dec => unreachable!("INC/DEC never write CF"),
        }
    }
    if live & flags::ZF != 0 {
        let pt = sink.vp();
        let pf = sink.vp();
        sink.emit(Op::Cmp {
            rel: CmpRel::Eq,
            pt,
            pf,
            a: Src::Reg(res),
            b: R0,
        });
        fa.or_pred(sink, pt, flags::ZF);
    }
    if live & flags::SF != 0 {
        let pt = sink.vp();
        let pf = sink.vp();
        sink.emit(Op::Tbit {
            pt,
            pf,
            r: res,
            pos: bits - 1,
        });
        fa.or_pred(sink, pt, flags::SF);
    }
    if live & flags::OF != 0 {
        match kind {
            ArithKind::Add => {
                // (~(a^b) & (a^res)) sign bit.
                let t1 = sink.vg();
                let t2 = sink.vg();
                let t3 = sink.vg();
                sink.emit(Op::Xor {
                    d: t1,
                    a: Src::Reg(a),
                    b,
                });
                sink.emit(Op::Xor {
                    d: t2,
                    a: Src::Reg(a),
                    b: res,
                });
                sink.emit(Op::AndCm {
                    d: t3,
                    a: Src::Reg(t2),
                    b: t1,
                });
                let pt = sink.vp();
                let pf = sink.vp();
                sink.emit(Op::Tbit {
                    pt,
                    pf,
                    r: t3,
                    pos: bits - 1,
                });
                fa.or_pred(sink, pt, flags::OF);
            }
            ArithKind::Sub => {
                // ((a^b) & (a^res)) sign bit.
                let t1 = sink.vg();
                let t2 = sink.vg();
                let t3 = sink.vg();
                sink.emit(Op::Xor {
                    d: t1,
                    a: Src::Reg(a),
                    b,
                });
                sink.emit(Op::Xor {
                    d: t2,
                    a: Src::Reg(a),
                    b: res,
                });
                sink.emit(Op::And {
                    d: t3,
                    a: Src::Reg(t2),
                    b: t1,
                });
                let pt = sink.vp();
                let pf = sink.vp();
                sink.emit(Op::Tbit {
                    pt,
                    pf,
                    r: t3,
                    pos: bits - 1,
                });
                fa.or_pred(sink, pt, flags::OF);
            }
            ArithKind::Inc => {
                // a sign 0, res sign 1.
                let t = sink.vg();
                sink.emit(Op::AndCm {
                    d: t,
                    a: Src::Reg(res),
                    b: a,
                });
                let pt = sink.vp();
                let pf = sink.vp();
                sink.emit(Op::Tbit {
                    pt,
                    pf,
                    r: t,
                    pos: bits - 1,
                });
                fa.or_pred(sink, pt, flags::OF);
            }
            ArithKind::Dec => {
                // a sign 1, res sign 0.
                let t = sink.vg();
                sink.emit(Op::AndCm {
                    d: t,
                    a: Src::Reg(a),
                    b: res,
                });
                let pt = sink.vp();
                let pf = sink.vp();
                sink.emit(Op::Tbit {
                    pt,
                    pf,
                    r: t,
                    pos: bits - 1,
                });
                fa.or_pred(sink, pt, flags::OF);
            }
            ArithKind::Logic => {}
        }
    }
    if live & flags::PF != 0 {
        let t = sink.vg();
        sink.emit(Op::And {
            d: t,
            a: Src::Imm(0xFF),
            b: res,
        });
        let c = sink.vg();
        sink.emit(Op::Popcnt { d: c, a: t });
        let pt = sink.vp();
        let pf = sink.vp();
        sink.emit(Op::Tbit {
            pt,
            pf,
            r: c,
            pos: 0,
        });
        // Even parity sets PF.
        fa.or_pred(sink, pf, flags::PF);
    }
    if live & flags::AF != 0 && kind != ArithKind::Logic {
        let t1 = sink.vg();
        let t2 = sink.vg();
        sink.emit(Op::Xor {
            d: t1,
            a: Src::Reg(a),
            b,
        });
        sink.emit(Op::Xor {
            d: t2,
            a: Src::Reg(t1),
            b: res,
        });
        let pt = sink.vp();
        let pf = sink.vp();
        sink.emit(Op::Tbit {
            pt,
            pf,
            r: t2,
            pos: 4,
        });
        fa.or_pred(sink, pt, flags::AF);
    }
    let written_mask = match kind {
        ArithKind::Inc | ArithKind::Dec => live & (flags::STATUS & !flags::CF),
        _ => live & flags::STATUS,
    };
    fa.commit(sink, written_mask, qp);
}

/// Emits `SF`/`ZF`/`PF` (+ cleared `CF`/`OF`/`AF`) for a logic result.
pub(super) fn logic_flags(sink: &mut Sink, res: Gr, size: Size, live: u32) {
    arith_flags(sink, ArithKind::Logic, R0, R0, res, res, size, live, None);
}

/// Builds the predicates for an IA-32 condition from the materialized
/// EFLAGS register. Returns `(true_pred, false_pred)`.
pub(super) fn cond_from_flags(sink: &mut Sink, cond: ia32::Cond) -> (Pr, Pr) {
    use ia32::Cond as C;
    let r41 = GR_EFLAGS;
    let tbit_pair = |sink: &mut Sink, pos: u8| {
        let pt = sink.vp();
        let pf = sink.vp();
        sink.emit(Op::Tbit {
            pt,
            pf,
            r: r41,
            pos,
        });
        (pt, pf)
    };
    let swap = |(a, b): (Pr, Pr)| (b, a);
    match cond {
        C::E => tbit_pair(sink, 6),
        C::Ne => swap(tbit_pair(sink, 6)),
        C::B => tbit_pair(sink, 0),
        C::Ae => swap(tbit_pair(sink, 0)),
        C::S => tbit_pair(sink, 7),
        C::Ns => swap(tbit_pair(sink, 7)),
        C::O => tbit_pair(sink, 11),
        C::No => swap(tbit_pair(sink, 11)),
        C::P => tbit_pair(sink, 2),
        C::Np => swap(tbit_pair(sink, 2)),
        C::Be | C::A => {
            let t = sink.vg();
            sink.emit(Op::And {
                d: t,
                a: Src::Imm((flags::CF | flags::ZF) as i64),
                b: r41,
            });
            let pt = sink.vp();
            let pf = sink.vp();
            sink.emit(Op::Cmp {
                rel: CmpRel::Ne,
                pt,
                pf,
                a: Src::Reg(t),
                b: R0,
            });
            if cond == C::Be {
                (pt, pf)
            } else {
                (pf, pt)
            }
        }
        C::L | C::Ge => {
            let sf = sink.vg();
            let of = sink.vg();
            let x = sink.vg();
            sink.emit(Op::Extr {
                d: sf,
                a: r41,
                pos: 7,
                len: 1,
                signed: false,
            });
            sink.emit(Op::Extr {
                d: of,
                a: r41,
                pos: 11,
                len: 1,
                signed: false,
            });
            sink.emit(Op::Xor {
                d: x,
                a: Src::Reg(sf),
                b: of,
            });
            let pt = sink.vp();
            let pf = sink.vp();
            sink.emit(Op::Tbit {
                pt,
                pf,
                r: x,
                pos: 0,
            });
            if cond == C::L {
                (pt, pf)
            } else {
                (pf, pt)
            }
        }
        C::Le | C::G => {
            let sf = sink.vg();
            let of = sink.vg();
            let x = sink.vg();
            let zf = sink.vg();
            let y = sink.vg();
            sink.emit(Op::Extr {
                d: sf,
                a: r41,
                pos: 7,
                len: 1,
                signed: false,
            });
            sink.emit(Op::Extr {
                d: of,
                a: r41,
                pos: 11,
                len: 1,
                signed: false,
            });
            sink.emit(Op::Xor {
                d: x,
                a: Src::Reg(sf),
                b: of,
            });
            sink.emit(Op::Extr {
                d: zf,
                a: r41,
                pos: 6,
                len: 1,
                signed: false,
            });
            sink.emit(Op::Or {
                d: y,
                a: Src::Reg(x),
                b: zf,
            });
            let pt = sink.vp();
            let pf = sink.vp();
            sink.emit(Op::Tbit {
                pt,
                pf,
                r: y,
                pos: 0,
            });
            if cond == C::Le {
                (pt, pf)
            } else {
                (pf, pt)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_zero_emits_nothing() {
        let mut s = Sink::new();
        arith_flags(&mut s, ArithKind::Add, R0, R0, R0, R0, Size::D, 0, None);
        assert_eq!(s.inst_count(), 0);
    }

    #[test]
    fn full_status_emits_all_families() {
        let mut s = Sink::new();
        let a = s.vg();
        let b = s.vg();
        let r64 = s.vg();
        let r = s.vg();
        arith_flags(
            &mut s,
            ArithKind::Add,
            a,
            b,
            r64,
            r,
            Size::D,
            flags::STATUS,
            None,
        );
        // CF(2) + ZF(2) + SF(2) + OF(5) + PF(4) + AF(4) + init(1) + commit(2)
        assert!(s.inst_count() >= 18, "got {}", s.inst_count());
    }

    #[test]
    fn single_flag_is_cheap() {
        let mut s = Sink::new();
        let r = s.vg();
        arith_flags(
            &mut s,
            ArithKind::Logic,
            R0,
            R0,
            r,
            r,
            Size::D,
            flags::ZF,
            None,
        );
        assert!(s.inst_count() <= 5, "got {}", s.inst_count());
    }

    #[test]
    fn cond_pred_emission() {
        for cond in (0..16).map(ia32::Cond::from_code) {
            let mut s = Sink::new();
            let (pt, pf) = cond_from_flags(&mut s, cond);
            assert!(pt.is_virtual() && pf.is_virtual());
            assert_ne!(pt, pf);
            assert!(s.inst_count() >= 1);
        }
    }
}
