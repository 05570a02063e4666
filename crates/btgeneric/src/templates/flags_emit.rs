//! The flag recipes: how each IA-32 flag fact is computed on Itanium,
//! written once.
//!
//! Computing IA-32 flags on Itanium is pure overhead — several micro-ops
//! per flag — which is why the translator's liveness analysis only
//! materializes *live* bits, and why the fused compare+branch path (in
//! [`super::int`]) skips EFLAGS entirely. A setter builds its bits in a
//! [`FlagAcc`] (ZF and SF from [`FlagAcc::zf_sf`], PF from
//! [`FlagAcc::pf`], CF/OF/AF in [`arith_flags`] or the shift and
//! multiply templates) and commits them; a reader asks
//! [`cond_from_flags`] or, for a fused branch on the result itself,
//! [`result_cond`]. None of them names the EFLAGS home: it belongs to
//! [`Eflags`]. These helpers are shared by the cold and hot phases.
//!
//! An ADD/SUB/CMP/NEG, logic or INC/DEC setter whose live bits include
//! some that only the engine reads (flag liveness's `read` mask,
//! [`EmitCtx::read_flags`]) may leave those to the [`Eflags`] thunk
//! instead of computing them, when the recipe ops saved exceed the
//! thunk ops it costs ([`arith_flags`]).

use super::{EmitCtx, Sink};
use crate::state::Eflags;
use ia32::flags;
use ia32::Size;
use ipf::inst::{CmpRel, Op, Src};
use ipf::regs::{Gr, Pr, R0};

/// Accumulates flag bits into a scratch register, then merges them into
/// the EFLAGS home, clearing exactly the bits in the mask.
pub(super) struct FlagAcc {
    acc: Gr,
}

impl FlagAcc {
    pub(super) fn new(sink: &mut Sink) -> FlagAcc {
        Self::deferring(sink, 0)
    }

    /// An accumulator whose merge also marks status bits `deferred` as
    /// left to the thunk.
    fn deferring(sink: &mut Sink, deferred: u32) -> FlagAcc {
        let acc = sink.vg();
        if deferred == 0 {
            sink.mov(acc, R0);
        } else {
            Eflags::marked_into(sink, acc, deferred);
        }
        FlagAcc { acc }
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

    /// ZF and SF, those of them `live`, of the `size`-bit result `res`
    /// (zero-extended).
    pub(super) fn zf_sf(&mut self, sink: &mut Sink, res: Gr, size: Size, live: u32) {
        if live & flags::ZF != 0 {
            let (pt, _) = result_zf(sink, res);
            self.or_pred(sink, pt, flags::ZF);
        }
        if live & flags::SF != 0 {
            let (pt, _) = result_sf(sink, res, size);
            self.or_pred(sink, pt, flags::SF);
        }
    }

    /// PF, if `live`, of the result `res`: set when its low byte has an
    /// even number of one bits.
    pub(super) fn pf(&mut self, sink: &mut Sink, res: Gr, live: u32) {
        if live & flags::PF == 0 {
            return;
        }
        let t = sink.vg();
        sink.emit(Op::And {
            d: t,
            a: Src::Imm(0xFF),
            b: res,
        });
        let c = sink.vg();
        sink.emit(Op::Popcnt { d: c, a: t });
        let (pt, pf) = (sink.vp(), sink.vp());
        sink.emit(Op::Tbit {
            pt,
            pf,
            r: c,
            pos: 0,
        });
        self.or_pred(sink, pf, flags::PF);
    }

    /// Merges the accumulated bits into EFLAGS, clearing `mask` first,
    /// optionally predicated (variable shifts leave flags untouched on
    /// zero count).
    pub(super) fn commit(self, sink: &mut Sink, mask: u32, qp: Option<Pr>) {
        Eflags::merge(sink, self.acc, mask, qp);
    }
}

/// `(zero, non-zero)` predicates of `res`.
fn result_zf(sink: &mut Sink, res: Gr) -> (Pr, Pr) {
    let (pt, pf) = (sink.vp(), sink.vp());
    sink.emit(Op::Cmp {
        rel: CmpRel::Eq,
        pt,
        pf,
        a: Src::Reg(res),
        b: R0,
    });
    (pt, pf)
}

/// `(negative, non-negative)` predicates of the `size`-bit value `res`.
fn result_sf(sink: &mut Sink, res: Gr, size: Size) -> (Pr, Pr) {
    let (pt, pf) = (sink.vp(), sink.vp());
    sink.emit(Op::Tbit {
        pt,
        pf,
        r: res,
        pos: size.bits() as u8 - 1,
    });
    (pt, pf)
}

/// Arithmetic-flag families.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum ArithKind {
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

/// The status bits a `kind` setter writes.
fn written(kind: ArithKind) -> u32 {
    match kind {
        ArithKind::Inc | ArithKind::Dec => flags::STATUS & !flags::CF,
        _ => flags::STATUS,
    }
}

/// The operands of a flag setter, as [`arith_flags`] takes them.
#[derive(Clone, Copy)]
struct Setter {
    kind: ArithKind,
    a: Gr,
    b: Gr,
    res64: Gr,
    res: Gr,
    size: Size,
}

/// The ops `emit` puts in a sink of its own.
fn ops(emit: impl FnOnce(&mut Sink)) -> usize {
    let mut sink = Sink::new();
    emit(&mut sink);
    sink.inst_count()
}

/// Of the `live` bits of setter `s`, those it leaves to the thunk:
/// every bit only the engine reads, when the recipe would spend more
/// ops on them than the thunk costs — so an ADD's or SUB's lone CF or
/// ZF stays eager — or none.
fn deferred(ctx: &EmitCtx<'_>, s: Setter, live: u32) -> u32 {
    let engine_only = live & !ctx.read_flags & written(s.kind);
    if engine_only == 0 {
        return 0;
    }
    let recipe = ops(|sink| {
        let mut fa = FlagAcc { acc: sink.vg() };
        recipe(sink, &mut fa, s, engine_only);
    });
    let thunk = ops(|sink| Eflags::defer(sink, s.kind, s.size, s.a, s.b));
    if recipe > thunk {
        engine_only
    } else {
        0
    }
}

/// Emits the flag updates for an arithmetic result.
///
/// * `a`, `b` — operands, zero-extended to `size` (64-bit registers).
///   For `Inc`/`Dec`, `b` is [`GR_ONE`](crate::state::GR_ONE). `NEG`
///   passes [`ArithKind::Sub`] with `a` = `r0` and `b` = the operand.
/// * `res64` — the untruncated 64-bit arithmetic result.
/// * `res` — the result truncated (and zero-extended) to `size`.
/// * `live` — the flag bits to materialize (already masked to what the
///   instruction architecturally writes).
/// * `deferrable` — whether the bits only the engine reads may go to
///   the thunk; not for ADC/SBB, whose carry-in the thunk does not
///   keep.
#[allow(clippy::too_many_arguments)]
pub(super) fn arith_flags(
    sink: &mut Sink,
    ctx: &mut EmitCtx<'_>,
    kind: ArithKind,
    a: Gr,
    b: Gr,
    res64: Gr,
    res: Gr,
    size: Size,
    live: u32,
    deferrable: bool,
) {
    if live == 0 {
        return;
    }
    // A logic setter leaves its result to the thunk.
    let a = if kind == ArithKind::Logic { res } else { a };
    let s = Setter {
        kind,
        a,
        b,
        res64,
        res,
        size,
    };
    let defer = if deferrable {
        deferred(ctx, s, live)
    } else {
        0
    };
    let live = live & !defer;
    if defer != 0 {
        Eflags::defer(sink, kind, size, a, b);
        if live == 0 {
            Eflags::mark(sink, defer);
            return;
        }
    }
    let mut fa = FlagAcc::deferring(sink, defer);
    recipe(sink, &mut fa, s, live);
    fa.commit(sink, live & written(kind), None);
}

/// Accumulates the `live` bits of setter `s` in `fa`.
fn recipe(sink: &mut Sink, fa: &mut FlagAcc, s: Setter, live: u32) {
    let Setter {
        kind,
        a,
        b,
        res64,
        res,
        size,
    } = s;
    let bits = size.bits() as u8;
    let arith = matches!(kind, ArithKind::Add | ArithKind::Sub);

    if live & flags::CF != 0 && arith {
        // Carry out of a sum is bit `size` of the 64-bit result; a
        // borrow makes the 64-bit difference negative.
        let pos = if kind == ArithKind::Add { bits } else { 63 };
        let (pt, pf) = (sink.vp(), sink.vp());
        sink.emit(Op::Tbit {
            pt,
            pf,
            r: res64,
            pos,
        });
        fa.or_pred(sink, pt, flags::CF);
    }
    fa.zf_sf(sink, res, size, live);
    if live & flags::OF != 0 && kind != ArithKind::Logic {
        // The sign bit of: ADD ~(a^b) & (a^res), SUB (a^b) & (a^res)
        // (operand signs equal, resp. different, and the result's sign
        // differs from a's); INC res & ~a, DEC a & ~res.
        let t = if arith {
            let (t1, t2, t3) = (sink.vg(), sink.vg(), sink.vg());
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
            let (d, a) = (t3, Src::Reg(t2));
            sink.emit(if kind == ArithKind::Add {
                Op::AndCm { d, a, b: t1 }
            } else {
                Op::And { d, a, b: t1 }
            });
            t3
        } else {
            let t = sink.vg();
            let (x, y) = if kind == ArithKind::Inc {
                (res, a)
            } else {
                (a, res)
            };
            sink.emit(Op::AndCm {
                d: t,
                a: Src::Reg(x),
                b: y,
            });
            t
        };
        let (pt, pf) = (sink.vp(), sink.vp());
        sink.emit(Op::Tbit {
            pt,
            pf,
            r: t,
            pos: bits - 1,
        });
        fa.or_pred(sink, pt, flags::OF);
    }
    fa.pf(sink, res, live);
    if live & flags::AF != 0 && kind != ArithKind::Logic {
        // Bit 4 of a ^ b ^ res.
        let (t1, t2) = (sink.vg(), sink.vg());
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
        let (pt, pf) = (sink.vp(), sink.vp());
        sink.emit(Op::Tbit {
            pt,
            pf,
            r: t2,
            pos: 4,
        });
        fa.or_pred(sink, pt, flags::AF);
    }
}

/// Emits `SF`/`ZF`/`PF` (+ cleared `CF`/`OF`/`AF`) for a logic result.
pub(super) fn logic_flags(sink: &mut Sink, ctx: &mut EmitCtx<'_>, res: Gr, size: Size, live: u32) {
    arith_flags(
        sink,
        ctx,
        ArithKind::Logic,
        R0,
        R0,
        res,
        res,
        size,
        live,
        true,
    );
}

/// Builds the predicates for an IA-32 condition from the EFLAGS home.
/// Returns `(true_pred, false_pred)`.
pub(super) fn cond_from_flags(sink: &mut Sink, cond: ia32::Cond) -> (Pr, Pr) {
    use ia32::Cond as C;
    let pair = match cond {
        C::O | C::No => Eflags::test(sink, 11),
        C::B | C::Ae => Eflags::test(sink, 0),
        C::E | C::Ne => Eflags::test(sink, 6),
        C::S | C::Ns => Eflags::test(sink, 7),
        C::P | C::Np => Eflags::test(sink, 2),
        C::Be | C::A => {
            // CF | ZF.
            let t = sink.vg();
            Eflags::masked_into(sink, t, flags::CF | flags::ZF);
            let (pt, pf) = (sink.vp(), sink.vp());
            sink.emit(Op::Cmp {
                rel: CmpRel::Ne,
                pt,
                pf,
                a: Src::Reg(t),
                b: R0,
            });
            (pt, pf)
        }
        C::L | C::Ge | C::Le | C::G => {
            // SF ^ OF, or'ed with ZF for LE and G.
            let (sf, of, x) = (sink.vg(), sink.vg(), sink.vg());
            Eflags::bit_into(sink, sf, 7);
            Eflags::bit_into(sink, of, 11);
            sink.emit(Op::Xor {
                d: x,
                a: Src::Reg(sf),
                b: of,
            });
            let r = if matches!(cond, C::Le | C::G) {
                let (zf, y) = (sink.vg(), sink.vg());
                Eflags::bit_into(sink, zf, 6);
                sink.emit(Op::Or {
                    d: y,
                    a: Src::Reg(x),
                    b: zf,
                });
                y
            } else {
                x
            };
            let (pt, pf) = (sink.vp(), sink.vp());
            sink.emit(Op::Tbit { pt, pf, r, pos: 0 });
            (pt, pf)
        }
    };
    // An odd condition code is the negation of the even one before it.
    if cond.code() & 1 == 0 {
        pair
    } else {
        (pair.1, pair.0)
    }
}

/// The predicates `(taken, not_taken)` of `cond` — E, NE, S or NS —
/// taken from the `size`-bit result `res` itself rather than from
/// EFLAGS: a fused ALU + `Jcc`.
pub(super) fn result_cond(sink: &mut Sink, res: Gr, size: Size, cond: ia32::Cond) -> (Pr, Pr) {
    use ia32::Cond as C;
    let (pt, pf) = match cond {
        C::E | C::Ne => result_zf(sink, res),
        C::S | C::Ns => result_sf(sink, res, size),
        _ => unreachable!("{cond:?} is not a condition on the result"),
    };
    if matches!(cond, C::E | C::S) {
        (pt, pf)
    } else {
        (pf, pt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::templates::{AccessMode, AlignCache, FpCtx, MisalignPlan, XmmCtx};

    /// Runs `f` with the context of one instruction at 0x1000 after
    /// which `live` flags are live and translated code reads `read` of
    /// them.
    fn with_ctx_reading<T>(live: u32, read: u32, f: impl FnOnce(&mut EmitCtx<'_>) -> T) -> T {
        let (mut fp, mut xmm) = (FpCtx::new(0, false), XmmCtx::new(0));
        let plan = MisalignPlan::uniform(AccessMode::Fast, 0);
        f(&mut EmitCtx {
            ip: 0x1000,
            next_ip: 0x1004,
            live_flags: live,
            read_flags: read,
            fp: &mut fp,
            xmm: &mut xmm,
            misalign: &plan,
            align: &mut AlignCache::default(),
        })
    }

    /// Runs `f` with the context of one instruction at 0x1000 after
    /// which `live` flags are live, all of them read by translated code.
    fn with_ctx<T>(live: u32, f: impl FnOnce(&mut EmitCtx<'_>) -> T) -> T {
        with_ctx_reading(live, live, f)
    }

    /// The ops `arith_flags` emits for an ADD at D with `live` flags of
    /// which translated code reads `read`.
    fn add_ops(live: u32, read: u32) -> usize {
        let mut s = Sink::new();
        let (a, b, r64, r) = (s.vg(), s.vg(), s.vg(), s.vg());
        with_ctx_reading(live, read, |ctx| {
            arith_flags(
                &mut s,
                ctx,
                ArithKind::Add,
                a,
                b,
                r64,
                r,
                Size::D,
                live,
                true,
            )
        });
        s.inst_count()
    }

    #[test]
    fn live_zero_emits_nothing() {
        assert_eq!(add_ops(0, 0), 0);
    }

    #[test]
    fn full_status_emits_all_families() {
        // CF(2) + ZF(2) + SF(2) + OF(5) + PF(4) + AF(4) + init(1) + commit(2)
        let n = add_ops(flags::STATUS, flags::STATUS);
        assert!(n >= 18, "got {n}");
    }

    #[test]
    fn single_flag_is_cheap() {
        let mut s = Sink::new();
        let r = s.vg();
        with_ctx(flags::ZF, |ctx| {
            logic_flags(&mut s, ctx, r, Size::D, flags::ZF);
        });
        assert!(s.inst_count() <= 5, "got {}", s.inst_count());
    }

    /// Flags only the engine reads go to the thunk — its kind, two
    /// operands and the marks — when that is cheaper than the recipe; a
    /// lone CF or ZF is not.
    #[test]
    fn engine_only_flags_are_deferred_when_cheaper() {
        assert_eq!(add_ops(flags::STATUS, 0), 4);
        assert!(add_ops(flags::STATUS, flags::SF) < add_ops(flags::STATUS, flags::STATUS));
        for lone in [flags::CF, flags::ZF] {
            assert_eq!(add_ops(lone, 0), add_ops(lone, lone));
        }
        // ADC keeps everything in the home: the thunk has no carry-in.
        let mut s = Sink::new();
        let (a, b, r64, r) = (s.vg(), s.vg(), s.vg(), s.vg());
        with_ctx_reading(flags::STATUS, 0, |ctx| {
            let live = flags::STATUS;
            arith_flags(
                &mut s,
                ctx,
                ArithKind::Add,
                a,
                b,
                r64,
                r,
                Size::D,
                live,
                false,
            )
        });
        assert_eq!(s.inst_count(), add_ops(flags::STATUS, flags::STATUS));
    }

    /// The recipe-level oracle: every flag setter and reader emitted
    /// through its template, evaluated on an `ipf::Machine` and
    /// compared with `ia32::flags`.
    mod oracle {
        use super::*;
        use crate::hot::eval;
        use crate::state;
        use crate::templates::{emit, emit_cond_pred, emit_fused_cmp_jcc, IlItem};
        use ia32::inst::{AluOp, Inst as I32, MulDivOp, Rm, RmI, ShiftCount, ShiftOp};
        use ia32::regs::{EAX, EBX, ECX, EDX};
        use ia32::Cond;
        use ipf::machine::{CodeArena, Machine};
        use std::iter::once;

        const HOME: Gr = Eflags::HOMES[0];
        const SIZES: [Size; 3] = [Size::B, Size::W, Size::D];
        /// Every live mask that is one status bit, and all of them.
        const LIVE: [u32; 7] = [
            flags::CF,
            flags::PF,
            flags::AF,
            flags::ZF,
            flags::SF,
            flags::OF,
            flags::STATUS,
        ];
        /// Home values before a setter: every bit clear, every bit set.
        const SEEDS: [u32; 2] = [
            flags::RESERVED_ONES,
            flags::STATUS | flags::DF | flags::RESERVED_ONES,
        ];

        /// Operands at `size`: 0, 1, -1, the sign bit, max, sign-1,
        /// 0x80 and three seeded values.
        fn operands(size: Size) -> Vec<u32> {
            let sign = size.sign_bit();
            let mut v = vec![0, 1, u32::MAX, sign, size.mask(), sign - 1, 0x80];
            v.extend([0x9E37_79B9u32, 0x7F4A_7C15, 0x0000_8001].map(|x| x & size.mask()));
            v
        }

        /// Cases emitted into one sink, each ending with a store of one
        /// register and the value the oracle expects there — or, for
        /// the thunk's rows, of the whole home and the EFLAGS the
        /// oracle expects [`Eflags::read`] to make of it.
        #[derive(Default)]
        struct Cases {
            sink: Sink,
            want: Vec<(u64, String)>,
            /// Per thunk row: the EFLAGS expected, the bits compared
            /// (a setter's dead bits are not) and what the case is.
            reads: Vec<(u32, u32, String)>,
            stores: u64,
        }

        impl Cases {
            fn set(&mut self, r: Gr, v: u32) {
                self.sink.emit(Op::Movl {
                    d: r,
                    imm: v as u64,
                });
            }

            fn emit(&mut self, inst: &I32, live: u32) {
                with_ctx(live, |ctx| emit(&mut self.sink, inst, ctx)).expect("a template exists");
            }

            /// Emits `inst` with `live` flags after it, of which
            /// translated code reads `read`.
            fn emit_reading(&mut self, inst: &I32, live: u32, read: u32) {
                with_ctx_reading(live, read, |ctx| emit(&mut self.sink, inst, ctx))
                    .expect("a template exists");
            }

            /// The sum of `1 << i` over the predicates `preds[i]` that hold.
            fn pred_bits(&mut self, preds: &[Pr]) -> Gr {
                let d = self.sink.vg();
                self.sink.mov(d, R0);
                for (i, &p) in preds.iter().enumerate() {
                    let op = Op::Add {
                        d,
                        a: Src::Imm(1 << i),
                        b: d,
                    };
                    self.sink.emit_pred(p, op);
                }
                d
            }

            fn store(&mut self, r: Gr) {
                let addr = self.sink.vg();
                self.sink.mov_imm(addr, 0x10_0000 + 8 * self.stores);
                self.sink.emit(Op::St {
                    sz: 8,
                    addr,
                    val: r,
                });
                self.stores += 1;
            }

            fn check(&mut self, r: Gr, want: u64, what: String) {
                self.store(r);
                self.want.push((want, what));
            }

            /// Ends a thunk row: `Eflags::read` must give `want` on the
            /// bits of `mask`.
            fn check_read(&mut self, want: u32, mask: u32, what: String) {
                for h in Eflags::HOMES {
                    self.store(h);
                }
                self.reads.push((want, mask, what));
            }

            fn run(self) {
                let insts: Vec<ipf::Inst> = (self.sink.items.iter())
                    .map(|item| match item {
                        IlItem::Inst(e) => e.inst,
                        IlItem::Bind(_) => panic!("a flag recipe binds no label"),
                    })
                    .collect();
                let got = eval::run(&insts, 1).stores;
                if !self.reads.is_empty() {
                    return Self::compare_reads(&got, &self.reads);
                }
                assert_eq!(got.len(), self.want.len(), "one store per case");
                let bad: Vec<String> = (got.iter().zip(&self.want))
                    .filter(|((_, _, got), (want, _))| got != want)
                    .map(|((_, _, got), (want, what))| {
                        format!("{what}: got {got:#x}, oracle {want:#x}")
                    })
                    .collect();
                assert!(
                    bad.is_empty(),
                    "{} of {} cases differ:\n{}",
                    bad.len(),
                    self.want.len(),
                    bad[..bad.len().min(12)].join("\n")
                );
            }

            /// Puts each row's stored home and thunk into a machine and
            /// compares what `Eflags::read` makes of them.
            fn compare_reads(got: &[(u64, u32, u64)], reads: &[(u32, u32, String)]) {
                let homes = Eflags::HOMES.len();
                assert_eq!(got.len(), reads.len() * homes, "one home per row");
                let mut m = Machine::new(CodeArena::new(0x1_0000), ipf::Timing::default());
                let bad: Vec<String> = (got.chunks(homes).zip(reads))
                    .filter_map(|(regs, (want, mask, what))| {
                        for (h, &(_, _, v)) in Eflags::HOMES.iter().zip(regs) {
                            m.gr[h.0 as usize] = v;
                        }
                        let got = Eflags::read(&m);
                        (got & mask != want & mask).then(|| {
                            format!("{what}: read {got:#x}, oracle {want:#x} on {mask:#x}")
                        })
                    })
                    .collect();
                assert!(
                    bad.is_empty(),
                    "{} of {} rows differ:\n{}",
                    bad.len(),
                    reads.len(),
                    bad[..bad.len().min(12)].join("\n")
                );
            }
        }

        /// Runs `inst` at every live mask from every seed, with EAX = `a`
        /// and ECX = `b`, against `oracle(a, b, carry in)`: the flags it
        /// writes, or `None` when it leaves them all as they were.
        fn setter(
            recipe: &str,
            inst: I32,
            size: Size,
            pairs: &[(u32, u32)],
            oracle: impl Fn(u32, u32, bool) -> Option<u32>,
        ) {
            for live in LIVE {
                let mut cases = Cases::default();
                let mask = live & inst.props().flags_may;
                for seed in SEEDS {
                    for &(a, b) in pairs {
                        cases.set(state::guest_gpr(EAX.num()), a);
                        cases.set(state::guest_gpr(ECX.num()), b);
                        cases.set(HOME, seed);
                        cases.emit(&inst, live);
                        let want = (oracle(a, b, seed & flags::CF != 0))
                            .map_or(seed, |f| flags::merge(seed, f, mask));
                        let what = format!(
                            "{recipe} `{inst}`: size {size:?}, live {live:#x}, \
                             eax {a:#x}, ecx {b:#x}, home {seed:#x}"
                        );
                        cases.check(HOME, want as u64, what);
                    }
                }
                cases.run();
            }
        }

        fn pairs(size: Size) -> Vec<(u32, u32)> {
            let v = operands(size);
            v.iter()
                .flat_map(|&a| v.iter().map(move |&b| (a, b)))
                .collect()
        }

        /// The flags an instruction writes from EAX, ECX and the carry in.
        type Oracle<'a> = &'a dyn Fn(u32, u32, bool) -> u32;
        /// The result an instruction computes from EAX and ECX.
        type Res = fn(u32, u32) -> u32;

        #[test]
        fn arith_and_logic_setters_match_the_oracle() {
            let (eax, ecx) = (Rm::Reg(EAX), RmI::Reg(ECX));
            for size in SIZES {
                let alu = |op| I32::Alu {
                    op,
                    size,
                    dst: eax,
                    src: ecx,
                };
                let incdec = |inc| I32::IncDec {
                    inc,
                    size,
                    dst: eax,
                };
                let rows: [(&str, I32, Oracle); 9] = [
                    ("arith_flags", alu(AluOp::Add), &|a, b, _| {
                        flags::add(a, b, size)
                    }),
                    ("arith_flags", alu(AluOp::Adc), &|a, b, c| {
                        flags::adc(a, b, c, size)
                    }),
                    ("arith_flags", alu(AluOp::Sub), &|a, b, _| {
                        flags::sub(a, b, size)
                    }),
                    ("arith_flags", alu(AluOp::Sbb), &|a, b, c| {
                        flags::sbb(a, b, c, size)
                    }),
                    ("arith_flags", incdec(true), &|a, _, _| flags::inc(a, size)),
                    ("arith_flags", incdec(false), &|a, _, _| flags::dec(a, size)),
                    ("arith_flags", I32::Neg { size, dst: eax }, &|a, _, _| {
                        flags::neg(a, size)
                    }),
                    ("logic_flags", alu(AluOp::And), &|a, b, _| {
                        flags::logic(a & b, size)
                    }),
                    ("logic_flags", alu(AluOp::Xor), &|a, b, _| {
                        flags::logic(a ^ b, size)
                    }),
                ];
                for (recipe, inst, oracle) in rows {
                    setter(recipe, inst, size, &pairs(size), |a, b, c| {
                        Some(oracle(a, b, c))
                    });
                }
            }
        }

        #[test]
        fn shift_setters_match_the_oracle() {
            let counts = [0u32, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 0xFF];
            for size in SIZES {
                for op in [ShiftOp::Shl, ShiftOp::Shr, ShiftOp::Sar] {
                    // A zero count (after masking) leaves every flag as it was.
                    let oracle = |a, n: u32| match n & 0x1F {
                        0 => None,
                        c => Some(match op {
                            ShiftOp::Shl => flags::shl(a, c, size),
                            ShiftOp::Shr => flags::shr(a, c, size),
                            ShiftOp::Sar => flags::sar(a, c, size),
                        }),
                    };
                    let shift = |count| I32::Shift {
                        op,
                        size,
                        dst: Rm::Reg(EAX),
                        count,
                    };
                    let cl: Vec<_> = (operands(size).iter())
                        .flat_map(|&a| counts.map(|n| (a, n)))
                        .collect();
                    setter(
                        "shift_flags",
                        shift(ShiftCount::Cl),
                        size,
                        &cl,
                        |a, n, _| oracle(a, n),
                    );
                    let imm: Vec<_> = operands(size).iter().map(|&a| (a, 0)).collect();
                    for n in counts.into_iter().filter(|n| n & 0x1F != 0) {
                        let inst = shift(ShiftCount::Imm(n as u8));
                        setter("shift_flags", inst, size, &imm, |a, _, _| oracle(a, n));
                    }
                }
            }
        }

        /// Multiplies exist at 32 bits only: the byte and word forms
        /// are left to the interpreter.
        #[test]
        fn multiply_setters_match_the_oracle() {
            let (size, src) = (Size::D, Rm::Reg(ECX));
            for (op, signed) in [(MulDivOp::Mul, false), (MulDivOp::Imul, true)] {
                let inst = I32::MulDiv { op, size, src };
                setter("emit_mul_flags", inst, size, &pairs(size), |a, b, _| {
                    Some(if signed {
                        let p = a as i32 as i64 * b as i32 as i64;
                        flags::imul(p as u32, (p >> 32) as u32, size)
                    } else {
                        let p = a as u64 * b as u64;
                        flags::mul(p as u32, (p >> 32) as u32, size)
                    })
                });
            }
        }

        /// Every condition from every combination of CF/PF/ZF/SF/OF in
        /// the home; the other home bits set and clear.
        #[test]
        fn cond_from_flags_matches_cond_eval() {
            let mut cases = Cases::default();
            for cond in (0..16).map(Cond::from_code) {
                for combo in 0..32u32 {
                    let status = [flags::CF, flags::PF, flags::ZF, flags::SF, flags::OF]
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| combo >> i & 1 != 0)
                        .fold(0, |f, (_, &bit)| f | bit);
                    for rest in [flags::RESERVED_ONES, flags::AF | flags::DF | 0x0020_0302] {
                        let home = status | rest;
                        cases.set(HOME, home);
                        let (pt, pf) = emit_cond_pred(&mut cases.sink, cond);
                        // 1 when the condition holds, 2 when it does not,
                        // 0 or 3 when the pair is not complementary.
                        let d = cases.pred_bits(&[pt, pf]);
                        let want = if cond.eval(home) { 1 } else { 2 };
                        let what = format!("cond_from_flags `{cond:?}`: home {home:#x}");
                        cases.check(d, want, what);
                    }
                }
            }
            cases.run();
        }

        /// The fused ALU + Jcc forms that branch on the result alone:
        /// E, NE, S and NS of the result against `flags::logic`.
        #[test]
        fn result_cond_matches_cond_eval() {
            let (eax, ecx) = (Rm::Reg(EAX), RmI::Reg(ECX));
            for size in SIZES {
                let alu = |op| I32::Alu {
                    op,
                    size,
                    dst: eax,
                    src: ecx,
                };
                let incdec = |inc| I32::IncDec {
                    inc,
                    size,
                    dst: eax,
                };
                let rows: [(I32, Res); 7] = [
                    (alu(AluOp::Sub), |a, b| a.wrapping_sub(b)),
                    (alu(AluOp::And), |a, b| a & b),
                    (alu(AluOp::Or), |a, b| a | b),
                    (alu(AluOp::Xor), |a, b| a ^ b),
                    (incdec(true), |a, _| a.wrapping_add(1)),
                    (incdec(false), |a, _| a.wrapping_sub(1)),
                    (
                        I32::Test {
                            size,
                            a: eax,
                            b: ecx,
                        },
                        |a, b| a & b,
                    ),
                ];
                for (inst, res) in rows {
                    let mut cases = Cases::default();
                    for cond in [Cond::E, Cond::Ne, Cond::S, Cond::Ns] {
                        for (a, b) in pairs(size) {
                            cases.set(state::guest_gpr(EAX.num()), a);
                            cases.set(state::guest_gpr(ECX.num()), b);
                            let (t, nt) = with_ctx(0, |ctx| {
                                emit_fused_cmp_jcc(&mut cases.sink, &inst, cond, ctx)
                            })
                            .expect("the pair fuses");
                            // Bit 0 the taken predicate, bit 1 the other.
                            let taken = cases.pred_bits(&[t, nt]);
                            let want = cond.eval(flags::logic(res(a, b), size));
                            let want = if want { 1 } else { 2 };
                            let what = format!(
                                "result_cond `{inst}` + j{cond:?}: size {size:?}, \
                                 eax {a:#x}, ecx {b:#x}"
                            );
                            cases.check(taken, want, what);
                        }
                    }
                    cases.run();
                }
            }
        }

        /// Deferred setters a row's setter may follow: none, a D-size
        /// ADD, a W-size SUB and a B-size DEC of EBX with EDX, from
        /// these EBX and EDX, with the flags they write.
        fn preludes() -> [(Option<I32>, u32, u32, u32); 4] {
            let (ebx, edx) = (Rm::Reg(EBX), RmI::Reg(EDX));
            let alu = |op, size| I32::Alu {
                op,
                size,
                dst: ebx,
                src: edx,
            };
            let dec = I32::IncDec {
                inc: false,
                size: Size::B,
                dst: ebx,
            };
            [
                (None, 0, 0, 0),
                (
                    Some(alu(AluOp::Add, Size::D)),
                    u32::MAX,
                    1,
                    flags::add(u32::MAX, 1, Size::D),
                ),
                (
                    Some(alu(AluOp::Sub, Size::W)),
                    5,
                    7,
                    flags::sub(5, 7, Size::W),
                ),
                (Some(dec), 0x80, 0, flags::dec(0x80, Size::B)),
            ]
        }

        /// The thunk's rows: every setter that may defer, and ADC/SBB,
        /// which never do, at B/W/D and operand corners, alone and after
        /// each prelude, at every live mask — with nothing read by
        /// translated code, or one live bit — must leave EFLAGS, as
        /// `Eflags::read` materializes them, equal to the oracle's: the
        /// bits it writes and are live its own, every bit it does not
        /// write the prelude's (an INC/DEC's CF included).
        #[test]
        fn deferred_setters_read_back_through_the_thunk() {
            let (eax, ecx) = (Rm::Reg(EAX), RmI::Reg(ECX));
            for size in SIZES {
                let alu = |op| I32::Alu {
                    op,
                    size,
                    dst: eax,
                    src: ecx,
                };
                let incdec = |inc| I32::IncDec {
                    inc,
                    size,
                    dst: eax,
                };
                let rows: [(I32, Oracle); 12] = [
                    (alu(AluOp::Add), &|a, b, _| flags::add(a, b, size)),
                    (alu(AluOp::Sub), &|a, b, _| flags::sub(a, b, size)),
                    (alu(AluOp::Cmp), &|a, b, _| flags::sub(a, b, size)),
                    (I32::Neg { size, dst: eax }, &|a, _, _| flags::neg(a, size)),
                    (alu(AluOp::And), &|a, b, _| flags::logic(a & b, size)),
                    (alu(AluOp::Or), &|a, b, _| flags::logic(a | b, size)),
                    (alu(AluOp::Xor), &|a, b, _| flags::logic(a ^ b, size)),
                    (
                        I32::Test {
                            size,
                            a: eax,
                            b: ecx,
                        },
                        &|a, b, _| flags::logic(a & b, size),
                    ),
                    (incdec(true), &|a, _, _| flags::inc(a, size)),
                    (incdec(false), &|a, _, _| flags::dec(a, size)),
                    (alu(AluOp::Adc), &|a, b, c| flags::adc(a, b, c, size)),
                    (alu(AluOp::Sbb), &|a, b, c| flags::sbb(a, b, c, size)),
                ];
                for (inst, oracle) in rows {
                    let props = inst.props();
                    for (prelude, x, y, written) in preludes() {
                        let seed = SEEDS[1];
                        // What the home holds once the prelude ran: its
                        // bits deferred, but for those the setter reads.
                        let before = prelude
                            .map_or(seed, |p| flags::merge(seed, written, p.props().flags_may));
                        for live in LIVE {
                            let mask = live & props.flags_may;
                            // Alone, the setter runs with nothing read by
                            // translated code and with each one bit read,
                            // on the hand-picked corners; after a prelude,
                            // fully deferred and fully eager, with EAX at
                            // every corner and ECX = 1.
                            let (reads, pairs): (Vec<u32>, Vec<(u32, u32)>) = match prelude {
                                None => {
                                    let bits = (0..12).map(|k| 1 << k);
                                    let one = bits.filter(|bit| live & bit != 0 && live != *bit);
                                    let corners = &operands(size)[..7];
                                    let pairs = (corners.iter())
                                        .flat_map(|&a| corners.iter().map(move |&b| (a, b)));
                                    (once(0).chain(one).collect(), pairs.collect())
                                }
                                Some(_) => {
                                    let pairs = operands(size).into_iter().map(|a| (a, 1));
                                    (vec![0, live], pairs.collect())
                                }
                            };
                            for read in reads {
                                let mut cases = Cases::default();
                                for &(a, b) in &pairs {
                                    cases.set(state::guest_gpr(EAX.num()), a);
                                    cases.set(state::guest_gpr(ECX.num()), b);
                                    cases.set(state::guest_gpr(EBX.num()), x);
                                    cases.set(state::guest_gpr(EDX.num()), y);
                                    cases.set(HOME, seed);
                                    if let Some(p) = &prelude {
                                        cases.emit_reading(p, flags::STATUS, props.flags_read);
                                    }
                                    cases.emit_reading(&inst, live, read);
                                    let f = oracle(a, b, before & flags::CF != 0);
                                    let want = flags::merge(before, f, mask);
                                    // A written bit that is not live is dead.
                                    let compared = !(props.flags_may & !mask);
                                    let what = format!(
                                        "`{inst}` after {prelude:?}: size {size:?}, \
                                         live {live:#x}, read {read:#x}, \
                                         eax {a:#x}, ecx {b:#x}"
                                    );
                                    cases.check_read(want, compared, what);
                                }
                                cases.run();
                            }
                        }
                    }
                }
            }
        }
    }
}
