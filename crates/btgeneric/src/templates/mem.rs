//! Effective addresses, guest register access, and guest memory access
//! templates — including the three-stage misalignment detection and
//! avoidance machinery of paper §5.

use super::{EmitCtx, Sink};
use crate::layout::{Profile, StubKind};
use crate::state::{self, GR_PAYLOAD0};
use ia32::inst::Addr;
use ia32::regs::Gpr;
use ia32::Size;
use ipf::inst::{CmpRel, Op, ShiftKind, Src, Target};
use ipf::regs::{Gr, Pr, R0};
use std::collections::HashMap;

/// How a guest memory access is generated (the three stages of §5 plus
/// the unchecked fast path).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessMode {
    /// Plain access; misalignment faults to the engine (native cost).
    Fast,
    /// Stage 1 (cold v1): a light probe that branches to the translator
    /// on the first misaligned access so the block can be regenerated.
    Probe,
    /// Stage 2 (cold v2): detect alignment, record which access
    /// misaligned and at what granularity, and avoid the fault by
    /// splitting the access.
    DetectAvoid,
    /// Stage 3 (hot): avoidance sized to the recorded granularity.
    AvoidKnown {
        /// The split granularity in bytes (1, 2, or 4).
        gran: u8,
    },
}

/// Per-access misalignment strategy for one block.
#[derive(Clone, Debug)]
pub struct MisalignPlan {
    /// Mode for accesses without an override.
    pub default: AccessMode,
    /// Per-access-index overrides (hot stage 3 uses recorded data).
    pub overrides: HashMap<u16, AccessMode>,
    /// The profile record whose misalignment words `DetectAvoid`
    /// recording ORs into (one per indexed access).
    pub profile: Profile,
    /// Block id for `Probe` exits.
    pub block_id: u32,
}

impl MisalignPlan {
    /// A plan using one mode for every access.
    pub fn uniform(mode: AccessMode, block_id: u32) -> MisalignPlan {
        MisalignPlan {
            default: mode,
            overrides: HashMap::new(),
            profile: Profile::OVERFLOW,
            block_id,
        }
    }

    fn mode_of(&self, acc: u16) -> AccessMode {
        self.overrides.get(&acc).copied().unwrap_or(self.default)
    }
}

/// Key identifying misalignment-equivalent addresses (paper §5 stage
/// 3a): same base/index registers and congruent displacement.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(super) struct AlignKey {
    base: Option<u8>,
    index: Option<(u8, u8)>,
    disp_mod: u32,
    size: u8,
}

/// Cache of alignment predicates for equivalent addresses, shared
/// across the instructions of a hot trace.
#[derive(Default, Debug)]
pub struct AlignCache {
    map: HashMap<AlignKey, (Pr, Pr)>,
}

impl AlignCache {
    /// Empties the cache (block boundaries).
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Drops entries that depend on `gpr` (called on guest writes).
    pub fn invalidate_gpr(&mut self, gpr: u8) {
        self.map
            .retain(|k, _| k.base != Some(gpr) && k.index.map(|(r, _)| r) != Some(gpr));
    }
}

/// Computes the (zero-extended 32-bit) effective address of `a`.
pub(super) fn ea(sink: &mut Sink, a: &Addr) -> Gr {
    let mut cur: Option<Gr> = None;
    if let Some(b) = a.base {
        cur = Some(state::guest_gpr(b.num()));
    }
    if let Some((i, s)) = a.index {
        let idx = state::guest_gpr(i.num());
        let d = sink.vg();
        match (s, cur) {
            (1, Some(c)) => sink.emit(Op::Add {
                d,
                a: Src::Reg(c),
                b: idx,
            }),
            (1, None) => sink.mov(d, idx),
            (s, Some(c)) => sink.emit(Op::Shladd {
                d,
                a: idx,
                count: s.trailing_zeros() as u8,
                b: c,
            }),
            (s, None) => sink.emit(Op::Shift {
                kind: ShiftKind::Shl,
                d,
                a: idx,
                count: Src::Imm(s.trailing_zeros().into()),
            }),
        }
        cur = Some(d);
    }
    let with_disp = match (a.disp, cur) {
        (0, Some(c)) => c,
        (d, Some(c)) => {
            let t = sink.vg();
            sink.emit(Op::Add {
                d: t,
                a: Src::Imm(d as i64),
                b: c,
            });
            t
        }
        (d, None) => {
            let t = sink.vg();
            sink.mov_imm(t, d as u32 as u64);
            t
        }
    };
    // 32-bit wraparound.
    let out = sink.vg();
    sink.emit(Op::Xt {
        signed: false,
        d: out,
        a: with_disp,
        size: 4,
    });
    out
}

/// Reads guest GPR `r` at `size`, zero-extended into a 64-bit register.
/// For byte size, register numbers 4-7 are the high bytes of 0-3.
///
/// 32-bit reads return the canonical register itself (no copy).
/// Templates that consume the value *after* writing a destination that
/// may alias it (flag computation, XCHG, shifts) must call
/// [`snapshot`] first.
pub(super) fn read_gpr(sink: &mut Sink, r: Gpr, size: Size) -> Gr {
    let n = r.num();
    match size {
        Size::D => state::guest_gpr(n),
        Size::W => {
            let d = sink.vg();
            sink.emit(Op::Xt {
                signed: false,
                d,
                a: state::guest_gpr(n),
                size: 2,
            });
            d
        }
        Size::B => {
            let d = sink.vg();
            if n < 4 {
                sink.emit(Op::Xt {
                    signed: false,
                    d,
                    a: state::guest_gpr(n),
                    size: 1,
                });
            } else {
                sink.emit(Op::Extr {
                    d,
                    a: state::guest_gpr(n - 4),
                    pos: 8,
                    len: 8,
                    signed: false,
                });
            }
            d
        }
    }
}

/// Copies `v` into a fresh virtual register — an explicit snapshot for
/// values that must survive a subsequent write to a canonical register.
pub(super) fn snapshot(sink: &mut Sink, v: Gr) -> Gr {
    if v.is_virtual() {
        return v; // virtuals are single-assignment in the templates
    }
    let d = sink.vg();
    sink.mov(d, v);
    d
}

/// Writes `v` (low `size` bits) into guest GPR `r`, preserving untouched
/// high bits. `v` need not be pre-truncated.
pub(super) fn write_gpr(sink: &mut Sink, ctx: &mut EmitCtx<'_>, r: Gpr, size: Size, v: Gr) {
    let n = r.num();
    ctx.align_cache_invalidate(n, size);
    match size {
        Size::D => {
            let g = state::guest_gpr(n);
            sink.emit(Op::Xt {
                signed: false,
                d: g,
                a: v,
                size: 4,
            });
        }
        Size::W => {
            let g = state::guest_gpr(n);
            sink.emit(Op::Dep {
                d: g,
                src: v,
                target: g,
                pos: 0,
                len: 16,
            });
        }
        Size::B => {
            if n < 4 {
                let g = state::guest_gpr(n);
                sink.emit(Op::Dep {
                    d: g,
                    src: v,
                    target: g,
                    pos: 0,
                    len: 8,
                });
            } else {
                let g = state::guest_gpr(n - 4);
                sink.emit(Op::Dep {
                    d: g,
                    src: v,
                    target: g,
                    pos: 8,
                    len: 8,
                });
            }
        }
    }
}

impl EmitCtx<'_> {
    pub(super) fn align_cache_invalidate(&mut self, gpr: u8, _size: Size) {
        // Any write (even a partial one) changes the register value.
        self.align.invalidate_gpr(gpr);
    }
}

fn align_preds(
    sink: &mut Sink,
    ctx: &mut EmitCtx<'_>,
    addr: Gr,
    addr_expr: Option<&Addr>,
    size: u8,
) -> (Pr, Pr) {
    // Reuse an earlier equivalent check where possible (stage 3a).
    let key = addr_expr.map(|a| AlignKey {
        base: a.base.map(|r| r.num()),
        index: a.index.map(|(r, s)| (r.num(), s)),
        disp_mod: (a.disp as u32) & (size as u32 - 1),
        size,
    });
    if let Some(k) = key {
        if let Some(&p) = ctx.align.map.get(&k) {
            return p;
        }
    }
    let t = sink.vg();
    sink.emit(Op::And {
        d: t,
        a: Src::Imm((size - 1) as i64),
        b: addr,
    });
    let p_al = sink.vp();
    let p_mis = sink.vp();
    sink.emit(Op::Cmp {
        rel: CmpRel::Eq,
        pt: p_al,
        pf: p_mis,
        a: Src::Reg(t),
        b: R0,
    });
    if let Some(k) = key {
        ctx.align.map.insert(k, (p_al, p_mis));
    }
    (p_al, p_mis)
}

/// Emits a split load of `size` bytes in `gran`-byte parts, predicated
/// on `qp`, producing into `d`.
fn split_load(sink: &mut Sink, qp: Pr, addr: Gr, size: u8, gran: u8, d: Gr) {
    let parts = size / gran;
    for k in 0..parts {
        let pa = if k == 0 {
            addr
        } else {
            let t = sink.vg();
            sink.emit_pred(
                qp,
                Op::Add {
                    d: t,
                    a: Src::Imm((k * gran) as i64),
                    b: addr,
                },
            );
            t
        };
        let b = sink.vg();
        sink.emit_pred(
            qp,
            Op::Ld {
                sz: gran,
                d: b,
                addr: pa,
                spec: false,
            },
        );
        if k == 0 {
            sink.emit_pred(
                qp,
                Op::Add {
                    d,
                    a: Src::Imm(0),
                    b,
                },
            );
        } else {
            sink.emit_pred(
                qp,
                Op::Dep {
                    d,
                    src: b,
                    target: d,
                    pos: k * gran * 8,
                    len: (gran * 8).min(63),
                },
            );
        }
    }
}

/// Emits a split store. A one-byte probe load of the final byte runs
/// first so a page fault surfaces before any part is written (precise
/// exceptions); the engine converts the probe's read fault back into
/// the write fault the IA-32 instruction would have raised.
fn split_store(sink: &mut Sink, qp: Pr, addr: Gr, size: u8, gran: u8, val: Gr) {
    let last = sink.vg();
    sink.emit_pred(
        qp,
        Op::Add {
            d: last,
            a: Src::Imm((size - 1) as i64),
            b: addr,
        },
    );
    let probe = sink.vg();
    sink.emit_pred(
        qp,
        Op::Ld {
            sz: 1,
            d: probe,
            addr: last,
            spec: false,
        },
    );
    let parts = size / gran;
    for k in 0..parts {
        let pa = if k == 0 {
            addr
        } else {
            let t = sink.vg();
            sink.emit_pred(
                qp,
                Op::Add {
                    d: t,
                    a: Src::Imm((k * gran) as i64),
                    b: addr,
                },
            );
            t
        };
        let part = sink.vg();
        if k == 0 {
            sink.emit_pred(
                qp,
                Op::Add {
                    d: part,
                    a: Src::Imm(0),
                    b: val,
                },
            );
        } else {
            sink.emit_pred(
                qp,
                Op::Shift {
                    kind: ShiftKind::ShrU,
                    d: part,
                    a: val,
                    count: Src::Imm((k * gran * 8).into()),
                },
            );
        }
        sink.emit_pred(
            qp,
            Op::St {
                sz: gran,
                addr: pa,
                val: part,
            },
        );
    }
}

/// Emits the stage-2 misalignment recording: OR the observed low address
/// bits (plus a seen-flag) into this access's profile slot.
fn record_misalign(sink: &mut Sink, ctx: &EmitCtx<'_>, qp: Pr, addr: Gr, acc: u16, size: u8) {
    let slot = sink.vg();
    sink.emit_pred(
        qp,
        Op::Movl {
            d: slot,
            imm: ctx.misalign.profile.misalign_addr(acc),
        },
    );
    let c = sink.vg();
    sink.emit_pred(
        qp,
        Op::Ld {
            sz: 8,
            d: c,
            addr: slot,
            spec: false,
        },
    );
    let low = sink.vg();
    sink.emit_pred(
        qp,
        Op::And {
            d: low,
            a: Src::Imm((size - 1) as i64),
            b: addr,
        },
    );
    let c2 = sink.vg();
    sink.emit_pred(
        qp,
        Op::Or {
            d: c2,
            a: Src::Reg(c),
            b: low,
        },
    );
    let c3 = sink.vg();
    sink.emit_pred(
        qp,
        Op::Or {
            d: c3,
            a: Src::Imm(0x100),
            b: c2,
        },
    );
    sink.emit_pred(
        qp,
        Op::St {
            sz: 8,
            addr: slot,
            val: c3,
        },
    );
}

/// A guest data access: a load into, or a store of, a register.
#[derive(Clone, Copy)]
enum Access {
    Load(Gr),
    Store(Gr),
}

impl Access {
    /// The whole access as one op of `size` bytes.
    fn op(self, addr: Gr, size: u8) -> Op {
        match self {
            Access::Load(d) => Op::Ld {
                sz: size,
                d,
                addr,
                spec: false,
            },
            Access::Store(val) => Op::St {
                sz: size,
                addr,
                val,
            },
        }
    }

    /// The access in `gran`-byte parts, predicated on `qp`.
    fn split(self, sink: &mut Sink, qp: Pr, addr: Gr, size: u8, gran: u8) {
        match self {
            Access::Load(d) => split_load(sink, qp, addr, size, gran, d),
            Access::Store(val) => split_store(sink, qp, addr, size, gran, val),
        }
    }
}

/// Emits a guest data access of `size` bytes at `addr` (a 32-bit EA in
/// a 64-bit register) as the block's misalignment plan says. A byte
/// access cannot be misaligned.
fn guest_access(
    sink: &mut Sink,
    ctx: &mut EmitCtx<'_>,
    addr: Gr,
    addr_expr: Option<&Addr>,
    size: u8,
    access: Access,
) {
    let acc = sink.begin_access();
    let whole = access.op(addr, size);
    let mode = match size {
        1 => AccessMode::Fast,
        _ => ctx.misalign.mode_of(acc),
    };
    match mode {
        AccessMode::Fast => sink.emit(whole),
        AccessMode::Probe => {
            let (_, p_mis) = align_preds(sink, ctx, addr, None, size);
            sink.emit_pred(
                p_mis,
                Op::Add {
                    d: GR_PAYLOAD0,
                    a: Src::Imm(ctx.misalign.block_id as i64),
                    b: R0,
                },
            );
            sink.emit_pred(
                p_mis,
                Op::Br {
                    target: Target::Abs(StubKind::MisalignRetrain.addr()),
                },
            );
            sink.emit(whole);
        }
        AccessMode::DetectAvoid => {
            let (p_al, p_mis) = align_preds(sink, ctx, addr, None, size);
            sink.emit_pred(p_al, whole);
            record_misalign(sink, ctx, p_mis, addr, acc, size);
            access.split(sink, p_mis, addr, size, 1);
        }
        AccessMode::AvoidKnown { gran } => {
            let (p_al, p_mis) = align_preds(sink, ctx, addr, addr_expr, size);
            sink.emit_pred(p_al, whole);
            access.split(sink, p_mis, addr, size, gran.min(size));
        }
    }
    sink.end_access();
}

/// Emits a guest data load of `size` bytes at `addr`, honoring the
/// block's misalignment plan. Returns the zero-extended value.
pub(super) fn guest_load(
    sink: &mut Sink,
    ctx: &mut EmitCtx<'_>,
    addr: Gr,
    addr_expr: Option<&Addr>,
    size: u8,
) -> Gr {
    let d = sink.vg();
    guest_access(sink, ctx, addr, addr_expr, size, Access::Load(d));
    d
}

/// Emits a guest data store, honoring the misalignment plan. `val`'s
/// low `size` bytes are stored.
pub(super) fn guest_store(
    sink: &mut Sink,
    ctx: &mut EmitCtx<'_>,
    addr: Gr,
    addr_expr: Option<&Addr>,
    size: u8,
    val: Gr,
) {
    guest_access(sink, ctx, addr, addr_expr, size, Access::Store(val));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::templates::{FpCtx, XmmCtx};

    fn ctx_parts() -> (FpCtx, XmmCtx, MisalignPlan, AlignCache) {
        (
            FpCtx::new(0, false),
            XmmCtx::new(0),
            MisalignPlan::uniform(AccessMode::Fast, 0),
            AlignCache::default(),
        )
    }

    #[test]
    fn ea_shapes() {
        let (mut fp, mut xmm, plan, mut al) = ctx_parts();
        let mut s = Sink::new();
        let mut ctx = EmitCtx {
            ip: 0,
            next_ip: 0,
            live_flags: 0,
            read_flags: 0,
            fp: &mut fp,
            xmm: &mut xmm,
            misalign: &plan,
            align: &mut al,
        };
        let _ = &mut ctx;
        // [ebx + esi*4 + 0x10]: shladd + adds + zxt = 3 ops.
        let a = Addr::base_index(ia32::regs::EBX, ia32::regs::ESI, 4, 0x10);
        ea(&mut s, &a);
        assert_eq!(s.inst_count(), 3);
        // [abs]: movl/adds + zxt.
        let n0 = s.inst_count();
        ea(&mut s, &Addr::abs(0x1234));
        assert_eq!(s.inst_count() - n0, 2);
    }

    #[test]
    fn probe_mode_emits_branch() {
        let (mut fp, mut xmm, plan, mut al) = ctx_parts();
        let plan = MisalignPlan {
            default: AccessMode::Probe,
            ..plan
        };
        let mut s = Sink::new();
        let mut ctx = EmitCtx {
            ip: 0,
            next_ip: 0,
            live_flags: 0,
            read_flags: 0,
            fp: &mut fp,
            xmm: &mut xmm,
            misalign: &plan,
            align: &mut al,
        };
        let addr = s.vg();
        guest_load(&mut s, &mut ctx, addr, None, 4);
        let branches = s
            .items
            .iter()
            .filter(|i| matches!(i, crate::templates::IlItem::Inst(e) if e.inst.op.is_branch()))
            .count();
        assert_eq!(branches, 1);
    }

    #[test]
    fn avoid_known_reuses_predicates() {
        let (mut fp, mut xmm, plan, mut al) = ctx_parts();
        let plan = MisalignPlan {
            default: AccessMode::AvoidKnown { gran: 4 },
            ..plan
        };
        let mut s = Sink::new();
        let mut ctx = EmitCtx {
            ip: 0,
            next_ip: 0,
            live_flags: 0,
            read_flags: 0,
            fp: &mut fp,
            xmm: &mut xmm,
            misalign: &plan,
            align: &mut al,
        };
        let a1 = Addr::base_disp(ia32::regs::EBX, 0);
        let a2 = Addr::base_disp(ia32::regs::EBX, 8); // congruent mod 8
        let addr1 = ea(&mut s, &a1);
        guest_load(&mut s, &mut ctx, addr1, Some(&a1), 8);
        let n1 = s.inst_count();
        let addr2 = ea(&mut s, &a2);
        guest_load(&mut s, &mut ctx, addr2, Some(&a2), 8);
        let n2 = s.inst_count() - n1;
        assert!(
            n2 < n1,
            "second congruent access reuses the alignment check ({n1} vs {n2})"
        );
    }

    #[test]
    fn access_indices_assigned() {
        let (mut fp, mut xmm, plan, mut al) = ctx_parts();
        let mut s = Sink::new();
        let mut ctx = EmitCtx {
            ip: 0,
            next_ip: 0,
            live_flags: 0,
            read_flags: 0,
            fp: &mut fp,
            xmm: &mut xmm,
            misalign: &plan,
            align: &mut al,
        };
        let addr = s.vg();
        guest_load(&mut s, &mut ctx, addr, None, 4);
        guest_store(&mut s, &mut ctx, addr, None, 4, addr);
        assert_eq!(s.access_count(), 2);
    }
}
