//! Cold-code generation (paper §2, Figure 1): basic-block granularity,
//! template-driven, with instrumentation for later hot translation —
//! a use counter with a heating check, edge counters on conditional
//! branches, misalignment probes, speculation head-checks, and the
//! IA-32 state register updates that make cold exceptions precise.

use super::discover::{BlockEnd, Region};
use super::liveness::Liveness;
use super::lower::{lower, LowerError};
use crate::layout::{self, Profile, StubKind};
use crate::state::{GR_PAYLOAD0, GR_PAYLOAD1, GR_STATE};
use crate::templates::{
    self, emit_spec_checks, AlignCache, EmitCtx, FpCtx, IndKind, MisalignPlan, Sink, Term, XmmCtx,
};
use ia32::inst::{Class, Inst as I32};
use ipf::asm::{CodeBuilder, Relocatable};
use ipf::inst::{CmpRel, Op, ShiftKind, Src, Target};
use ipf::regs::{Br, R0};

/// Runtime speculation seeds, sampled by the engine at translation time
/// (the block is about to be entered, so "speculate what is true right
/// now").
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SpecSeed {
    /// Current x87 TOS.
    pub tos: u8,
    /// Current FP/MMX mode.
    pub mmx_mode: bool,
    /// Current XMM format word.
    pub xmm_fmt: u8,
}

/// Inputs to cold generation of one block.
pub struct ColdGenInput<'a> {
    /// The discovered region containing the block.
    pub region: &'a Region,
    /// Flag liveness over the region.
    pub liveness: &'a Liveness,
    /// The block to generate.
    pub entry: u32,
    /// Block id (payload for instrumentation exits).
    pub block_id: u32,
    /// The block's profile record: its use and edge counters, and the
    /// inline cache of an indirect jmp/call terminator.
    pub profile: Profile,
    /// Heating threshold (power of two; 0 disables the check).
    pub heat_threshold: u64,
    /// Misalignment strategy for this version of the block.
    pub misalign: MisalignPlan,
    /// Speculation seeds.
    pub spec: SpecSeed,
    /// Enable EFlags liveness (off = materialize everything).
    pub flag_liveness: bool,
    /// Enable compare+branch fusion.
    pub fuse: bool,
    /// Emit inline (per-access) FP tag checks — the post-TagFix variant.
    pub inline_fp_checks: bool,
    /// Self-modifying-code prologue: the words of the block's source
    /// span to compare on entry (empty: no prologue).
    pub smc_check: Vec<SourceWord>,
    /// Demoted variant of the indirect-transfer acceleration layer:
    /// the block was observed to mispredict chronically (megamorphic
    /// call site or shadow-stack-hostile ret), so emit only the plain
    /// 2-way table probe — no inline cache, no shadow push/pop.
    pub plain: bool,
}

/// One 8-byte-aligned word of a block's source span, as its
/// self-modifying-code prologue compares it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SourceWord {
    /// The word's (aligned) guest address.
    pub addr: u64,
    /// The word's bytes that lie inside the source span.
    pub mask: u64,
    /// Those bytes at translation time (zero outside `mask`).
    pub bytes: u64,
}

/// A generated cold block.
#[derive(Debug)]
pub struct ColdBlock {
    /// The code, to be placed wherever the arena has room.
    pub code: Relocatable,
    /// Untranslated-target exits: `(target_eip, trampoline's byte
    /// offset into the code)`. The trampoline's branch slot is patched
    /// once the target exists.
    pub exits: Vec<(u32, u64)>,
    /// IA-32 instructions translated.
    pub ia32_insts: usize,
    /// Guest memory accesses indexed (for misalignment profiling).
    pub accesses: u16,
    /// Speculated entry TOS (for engine-side TosFix).
    pub spec: SpecSeed,
    /// Speculated FP/MMX entry mode (engine-side MmxFix target).
    pub entry_mmx: bool,
    /// Native instructions emitted (pre-bundling count).
    pub native_insts: usize,
}

/// Generation failure.
#[derive(Debug)]
pub enum ColdGenError {
    /// The entry block was not in the region (discovery failed).
    NoBlock,
    /// Scratch exhaustion during lowering.
    Lower(LowerError),
}

impl std::fmt::Display for ColdGenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ColdGenError::NoBlock => write!(f, "entry block not discovered"),
            ColdGenError::Lower(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ColdGenError {}

/// Pre-scan of a block's or a trace's instructions, in order: does the
/// first FP-class one need MMX mode (false for x87, and for code that
/// touches neither)? Both phases speculate this entry mode, so both
/// ask here.
pub(crate) fn entry_mmx<'a>(insts: impl IntoIterator<Item = &'a I32>) -> bool {
    for inst in insts {
        match inst.props().class {
            Class::Mmx => return true,
            Class::X87 => return false,
            Class::Int | Class::Sse => {}
        }
    }
    false
}

/// Emits a counter increment `[addr] += 1`, optionally under `qp`,
/// returning the incremented value's register.
pub(crate) fn emit_counter_inc(
    sink: &mut Sink,
    qp: Option<ipf::regs::Pr>,
    addr: u64,
) -> ipf::regs::Gr {
    let qp = qp.unwrap_or(ipf::regs::P0);
    let a = sink.vg();
    sink.emit_pred(qp, Op::Movl { d: a, imm: addr });
    let c = sink.vg();
    sink.emit_pred(
        qp,
        Op::Ld {
            sz: 8,
            d: c,
            addr: a,
            spec: false,
        },
    );
    sink.emit_pred(
        qp,
        Op::Add {
            d: c,
            a: Src::Imm(1),
            b: c,
        },
    );
    sink.emit_pred(
        qp,
        Op::St {
            sz: 8,
            addr: a,
            val: c,
        },
    );
    c
}

/// Pushes a `(ret_eip, predicted_entry)` pair onto the simulated
/// return-address shadow stack ring. The predicted translated entry is
/// seeded from the shared lookup table at the call's translation-time
/// constant return slot; when the table has no entry yet the pair is
/// pushed empty, the matching `ret` underflows once, the dispatcher
/// fills the table, and later pushes predict.
pub(crate) fn emit_shadow_push(sink: &mut Sink, ret: u32) {
    let sb = sink.vg();
    sink.emit(Op::Movl {
        d: sb,
        imm: layout::SHADOW_TOS,
    });
    let tos = sink.vg();
    sink.emit(Op::Ld {
        sz: 8,
        d: tos,
        addr: sb,
        spec: false,
    });
    let shb = sink.vg();
    sink.emit(Op::Movl {
        d: shb,
        imm: layout::SHADOW_BASE,
    });
    let off = sink.vg();
    sink.emit(Op::Shift {
        kind: ShiftKind::Shl,
        d: off,
        a: tos,
        count: Src::Imm(4),
    });
    let ea = sink.vg();
    sink.emit(Op::Add {
        d: ea,
        a: Src::Reg(shb),
        b: off,
    });
    let t2 = sink.vg();
    sink.emit(Op::Add {
        d: t2,
        a: Src::Imm(1),
        b: tos,
    });
    sink.emit(Op::And {
        d: t2,
        a: Src::Imm((layout::SHADOW_ENTRIES - 1) as i64),
        b: t2,
    });
    sink.emit(Op::St {
        sz: 8,
        addr: sb,
        val: t2,
    });
    // Probe both ways of the return EIP's lookup set for a prediction.
    let s0 = sink.vg();
    sink.emit(Op::Movl {
        d: s0,
        imm: layout::lookup_slot(ret),
    });
    let rr = sink.vg();
    sink.mov_imm(rr, ret as u64);
    let k0 = sink.vg();
    sink.emit(Op::Ld {
        sz: 8,
        d: k0,
        addr: s0,
        spec: false,
    });
    let (p0, _n0) = (sink.vp(), sink.vp());
    sink.emit(Op::Cmp {
        rel: CmpRel::Eq,
        pt: p0,
        pf: _n0,
        a: Src::Reg(k0),
        b: rr,
    });
    let s1 = sink.vg();
    sink.emit(Op::Add {
        d: s1,
        a: Src::Imm(layout::LOOKUP_ENTRY_SIZE as i64),
        b: s0,
    });
    let k1 = sink.vg();
    sink.emit(Op::Ld {
        sz: 8,
        d: k1,
        addr: s1,
        spec: false,
    });
    let (p1, _n1) = (sink.vp(), sink.vp());
    sink.emit(Op::Cmp {
        rel: CmpRel::Eq,
        pt: p1,
        pf: _n1,
        a: Src::Reg(k1),
        b: rr,
    });
    // Default: empty pair; a way hit overwrites both halves.
    let key = sink.vg();
    sink.emit(Op::Movl {
        d: key,
        imm: layout::LOOKUP_EMPTY_KEY,
    });
    let tg = sink.vg();
    sink.emit(Op::Add {
        d: tg,
        a: Src::Imm(0),
        b: R0,
    });
    let t0 = sink.vg();
    sink.emit_pred(
        p0,
        Op::Add {
            d: t0,
            a: Src::Imm(8),
            b: s0,
        },
    );
    sink.emit_pred(
        p0,
        Op::Ld {
            sz: 8,
            d: tg,
            addr: t0,
            spec: false,
        },
    );
    sink.emit_pred(
        p0,
        Op::Add {
            d: key,
            a: Src::Imm(0),
            b: rr,
        },
    );
    let t1 = sink.vg();
    sink.emit_pred(
        p1,
        Op::Add {
            d: t1,
            a: Src::Imm(8),
            b: s1,
        },
    );
    sink.emit_pred(
        p1,
        Op::Ld {
            sz: 8,
            d: tg,
            addr: t1,
            spec: false,
        },
    );
    sink.emit_pred(
        p1,
        Op::Add {
            d: key,
            a: Src::Imm(0),
            b: rr,
        },
    );
    sink.emit(Op::St {
        sz: 8,
        addr: ea,
        val: key,
    });
    let ea8 = sink.vg();
    sink.emit(Op::Add {
        d: ea8,
        a: Src::Imm(8),
        b: ea,
    });
    sink.emit(Op::St {
        sz: 8,
        addr: ea8,
        val: tg,
    });
}

/// Pops the shadow stack and guard-compares the recorded return EIP
/// against the actual one in `eip`; a hit branches straight to the
/// recorded translated entry. The popped entry is consumed (emptied)
/// either way so an evicted target can never be re-entered through a
/// stale slot. A miss bumps the underflow/mispredict cells and drains
/// to the `IndirectMiss` stub with a `RET_MISS_TAG`-tagged block id, so
/// the dispatcher can count per-block pop misses and demote the block.
pub(crate) fn emit_shadow_pop(sink: &mut Sink, eip: ipf::regs::Gr, block_id: u32) {
    let sb = sink.vg();
    sink.emit(Op::Movl {
        d: sb,
        imm: layout::SHADOW_TOS,
    });
    let tos = sink.vg();
    sink.emit(Op::Ld {
        sz: 8,
        d: tos,
        addr: sb,
        spec: false,
    });
    let t2 = sink.vg();
    sink.emit(Op::Add {
        d: t2,
        a: Src::Imm(layout::SHADOW_ENTRIES as i64 - 1),
        b: tos,
    });
    sink.emit(Op::And {
        d: t2,
        a: Src::Imm((layout::SHADOW_ENTRIES - 1) as i64),
        b: t2,
    });
    sink.emit(Op::St {
        sz: 8,
        addr: sb,
        val: t2,
    });
    let shb = sink.vg();
    sink.emit(Op::Movl {
        d: shb,
        imm: layout::SHADOW_BASE,
    });
    let off = sink.vg();
    sink.emit(Op::Shift {
        kind: ShiftKind::Shl,
        d: off,
        a: t2,
        count: Src::Imm(4),
    });
    let ea = sink.vg();
    sink.emit(Op::Add {
        d: ea,
        a: Src::Reg(shb),
        b: off,
    });
    let k = sink.vg();
    sink.emit(Op::Ld {
        sz: 8,
        d: k,
        addr: ea,
        spec: false,
    });
    let emp = sink.vg();
    sink.emit(Op::Movl {
        d: emp,
        imm: layout::LOOKUP_EMPTY_KEY,
    });
    sink.emit(Op::St {
        sz: 8,
        addr: ea,
        val: emp,
    });
    let (p_hit, _p_miss) = (sink.vp(), sink.vp());
    sink.emit(Op::Cmp {
        rel: CmpRel::Eq,
        pt: p_hit,
        pf: _p_miss,
        a: Src::Reg(k),
        b: eip,
    });
    emit_counter_inc(sink, Some(p_hit), layout::CELL_SHADOW_HITS);
    let ea8 = sink.vg();
    sink.emit(Op::Add {
        d: ea8,
        a: Src::Imm(8),
        b: ea,
    });
    let tg = sink.vg();
    sink.emit_pred(
        p_hit,
        Op::Ld {
            sz: 8,
            d: tg,
            addr: ea8,
            spec: false,
        },
    );
    sink.emit_pred(p_hit, Op::MovToBr { b: Br(1), r: tg });
    sink.emit_pred(p_hit, Op::BrRet { b: Br(1) });
    // Only reached on a miss: attribute it.
    let (p_u, p_mp) = (sink.vp(), sink.vp());
    sink.emit(Op::Cmp {
        rel: CmpRel::Eq,
        pt: p_u,
        pf: p_mp,
        a: Src::Reg(k),
        b: emp,
    });
    emit_counter_inc(sink, Some(p_u), layout::CELL_SHADOW_UNDERFLOWS);
    emit_counter_inc(sink, Some(p_mp), layout::CELL_SHADOW_MISPREDICTS);
    sink.emit(Op::Add {
        d: GR_PAYLOAD0,
        a: Src::Imm(0),
        b: eip,
    });
    sink.emit(Op::Movl {
        d: GR_PAYLOAD1,
        imm: layout::RET_MISS_TAG | block_id as u64,
    });
    sink.emit(Op::Br {
        target: Target::Abs(StubKind::IndirectMiss.addr()),
    });
}

/// Per-site monomorphic inline cache: guard-compare the site's last
/// observed target EIP and branch straight to its translated entry on
/// a hit (also bumping the site's hit counter, which hot-phase
/// devirtualization reads as a stability signal). Falls through to the
/// shared table on miss.
pub(crate) fn emit_ic_probe(sink: &mut Sink, eip: ipf::regs::Gr, ic_slot: u64) {
    let s = sink.vg();
    sink.emit(Op::Movl { d: s, imm: ic_slot });
    let pk = sink.vg();
    sink.emit(Op::Ld {
        sz: 8,
        d: pk,
        addr: s,
        spec: false,
    });
    let (p_ic, _p_icm) = (sink.vp(), sink.vp());
    sink.emit(Op::Cmp {
        rel: CmpRel::Eq,
        pt: p_ic,
        pf: _p_icm,
        a: Src::Reg(pk),
        b: eip,
    });
    let s3 = sink.vg();
    sink.emit(Op::Add {
        d: s3,
        a: Src::Imm(Profile::IC_HITS),
        b: s,
    });
    let hc = sink.vg();
    sink.emit_pred(
        p_ic,
        Op::Ld {
            sz: 8,
            d: hc,
            addr: s3,
            spec: false,
        },
    );
    sink.emit_pred(
        p_ic,
        Op::Add {
            d: hc,
            a: Src::Imm(1),
            b: hc,
        },
    );
    sink.emit_pred(
        p_ic,
        Op::St {
            sz: 8,
            addr: s3,
            val: hc,
        },
    );
    let s2 = sink.vg();
    sink.emit(Op::Add {
        d: s2,
        a: Src::Imm(8),
        b: s,
    });
    let pe = sink.vg();
    sink.emit_pred(
        p_ic,
        Op::Ld {
            sz: 8,
            d: pe,
            addr: s2,
            spec: false,
        },
    );
    sink.emit_pred(p_ic, Op::MovToBr { b: Br(1), r: pe });
    sink.emit_pred(p_ic, Op::BrRet { b: Br(1) });
    // Only reached on a miss.
    emit_counter_inc(sink, None, layout::CELL_IC_MISSES);
}

/// 2-way set-associative probe of the shared lookup table with the
/// mixed hash from `layout::lookup_hash`, then the `IndirectMiss`
/// stub. `ic_slot` (0 for rets) rides in payload1 so the dispatcher
/// can retrain the site's inline cache.
pub(crate) fn emit_table_probe2(sink: &mut Sink, eip: ipf::regs::Gr, ic_slot: u64) {
    let hs = sink.vg();
    sink.emit(Op::Shift {
        kind: ShiftKind::ShrU,
        d: hs,
        a: eip,
        count: Src::Imm(12),
    });
    let h = sink.vg();
    sink.emit(Op::Xor {
        d: h,
        a: Src::Reg(eip),
        b: hs,
    });
    sink.emit(Op::And {
        d: h,
        a: Src::Imm((layout::LOOKUP_SETS - 1) as i64),
        b: h,
    });
    let off = sink.vg();
    sink.emit(Op::Shift {
        kind: ShiftKind::Shl,
        d: off,
        a: h,
        count: Src::Imm(5),
    });
    let base = sink.vg();
    sink.emit(Op::Movl {
        d: base,
        imm: layout::LOOKUP_BASE,
    });
    let sl = sink.vg();
    sink.emit(Op::Add {
        d: sl,
        a: Src::Reg(base),
        b: off,
    });
    // A table hit is also a teaching moment for the site's inline
    // cache: without this, a site whose target entered the table via
    // *another* site would miss its IC forever (the dispatcher, the
    // only other retrainer, is never reached on a table hit).
    let ics = if ic_slot != 0 {
        let r = sink.vg();
        sink.emit(Op::Movl { d: r, imm: ic_slot });
        Some(r)
    } else {
        None
    };
    for way in 0..layout::LOOKUP_WAYS {
        let slw = if way == 0 {
            sl
        } else {
            let s = sink.vg();
            sink.emit(Op::Add {
                d: s,
                a: Src::Imm((way * layout::LOOKUP_ENTRY_SIZE) as i64),
                b: sl,
            });
            s
        };
        let k = sink.vg();
        sink.emit(Op::Ld {
            sz: 8,
            d: k,
            addr: slw,
            spec: false,
        });
        let (p_hit, _p_miss) = (sink.vp(), sink.vp());
        sink.emit(Op::Cmp {
            rel: CmpRel::Eq,
            pt: p_hit,
            pf: _p_miss,
            a: Src::Reg(k),
            b: eip,
        });
        let s2 = sink.vg();
        sink.emit_pred(
            p_hit,
            Op::Add {
                d: s2,
                a: Src::Imm(8),
                b: slw,
            },
        );
        let tg = sink.vg();
        sink.emit_pred(
            p_hit,
            Op::Ld {
                sz: 8,
                d: tg,
                addr: s2,
                spec: false,
            },
        );
        if let Some(ics) = ics {
            sink.emit_pred(
                p_hit,
                Op::St {
                    sz: 8,
                    addr: ics,
                    val: eip,
                },
            );
            let ics8 = sink.vg();
            sink.emit_pred(
                p_hit,
                Op::Add {
                    d: ics8,
                    a: Src::Imm(8),
                    b: ics,
                },
            );
            sink.emit_pred(
                p_hit,
                Op::St {
                    sz: 8,
                    addr: ics8,
                    val: tg,
                },
            );
        }
        sink.emit_pred(p_hit, Op::MovToBr { b: Br(1), r: tg });
        sink.emit_pred(p_hit, Op::BrRet { b: Br(1) });
    }
    sink.emit(Op::Add {
        d: GR_PAYLOAD0,
        a: Src::Imm(0),
        b: eip,
    });
    if ic_slot != 0 {
        sink.emit(Op::Movl {
            d: GR_PAYLOAD1,
            imm: ic_slot,
        });
    } else {
        sink.emit(Op::Add {
            d: GR_PAYLOAD1,
            a: Src::Imm(0),
            b: R0,
        });
    }
    sink.emit(Op::Br {
        target: Target::Abs(StubKind::IndirectMiss.addr()),
    });
}

/// Generates the cold translation of one basic block.
///
/// # Errors
///
/// [`ColdGenError`] when the block is undiscoverable or lowering runs
/// out of scratch registers (the engine falls back to single-stepping).
pub fn generate(input: &ColdGenInput<'_>) -> Result<ColdBlock, ColdGenError> {
    let blk = input
        .region
        .block_at(input.entry)
        .ok_or(ColdGenError::NoBlock)?;
    let insts = input.region.insts(blk);

    let entry_mmx = entry_mmx(insts.iter().map(|(_, inst, _)| inst));
    let mut fp = FpCtx::new(input.spec.tos, false);
    fp.entry_mmx = entry_mmx;
    fp.cur_mmx = entry_mmx;
    fp.inline_checks = input.inline_fp_checks;
    let mut xmm = XmmCtx::new(input.spec.xmm_fmt);
    let mut align = AlignCache::default();

    let mut body = Sink::new();
    let mut term: Option<Term> = None;
    let mut term_ip = input.entry;
    let mut term_inst_ip = input.entry;
    let mut interp_bail: Option<u32> = None;
    let mut last_state_ip: Option<u32> = None;
    let mut ia32_count = 0usize;

    let mut i = 0;
    while i < insts.len() {
        let (ip, inst, len) = insts[i];
        let next_ip = ip + len as u32;
        term_ip = next_ip;
        let flags_after = |i| {
            if input.flag_liveness {
                input.liveness.flags_after(blk.start, i)
            } else {
                let all = ia32::flags::STATUS | ia32::flags::DF;
                (all, all)
            }
        };
        let (live_flags, read_flags) = flags_after(i);

        // Update the IA-32 state register before faulting instructions.
        let props = inst.props();
        if props.can_fault {
            match last_state_ip {
                None => body.emit(Op::Movl {
                    d: GR_STATE,
                    imm: ip as u64,
                }),
                Some(prev) if prev != ip => body.emit(Op::Add {
                    d: GR_STATE,
                    a: Src::Imm(ip as i64 - prev as i64),
                    b: GR_STATE,
                }),
                _ => {}
            }
            last_state_ip = Some(ip);
        }

        // Compare+branch fusion (paper: EFlags elimination).
        if input.fuse && i + 1 < insts.len() {
            if let (_, I32::Jcc { cond, target }, jlen) = insts[i + 1] {
                let reads = cond.flags_read();
                if props.flags_must & reads == reads {
                    let jcc_ip = insts[i + 1].0;
                    let j_next = jcc_ip + jlen as u32;
                    let (live_flags, read_flags) = flags_after(i + 1);
                    let mut ctx = EmitCtx {
                        ip,
                        next_ip,
                        live_flags,
                        read_flags,
                        fp: &mut fp,
                        xmm: &mut xmm,
                        misalign: &input.misalign,
                        align: &mut align,
                    };
                    if let Some(pt) =
                        templates::emit_fused_cmp_jcc(&mut body, &inst, cond, &mut ctx)
                    {
                        ia32_count += 2;
                        term = Some(Term::CondJump {
                            taken_pred: pt,
                            taken: target,
                            fallthrough: j_next,
                        });
                        term_ip = j_next;
                        break;
                    }
                }
            }
        }

        let mut ctx = EmitCtx {
            ip,
            next_ip,
            live_flags,
            read_flags,
            fp: &mut fp,
            xmm: &mut xmm,
            misalign: &input.misalign,
            align: &mut align,
        };
        match templates::emit(&mut body, &inst, &mut ctx) {
            Ok(t) => {
                ia32_count += 1;
                if let Some(t) = t {
                    term = Some(t);
                    term_inst_ip = ip;
                    break;
                }
            }
            Err(_) => {
                // Fall back to single-step interpretation of this
                // instruction; the block ends here.
                interp_bail = Some(ip);
                break;
            }
        }
        i += 1;
    }

    // Head: SMC check, speculation checks, instrumentation.
    let mut head = Sink::new();
    head.set_ip(input.entry);
    if let Some(first) = input.smc_check.first() {
        head.mov_imm(GR_PAYLOAD0, input.block_id as u64);
        let base = head.vg();
        head.emit(Op::Movl {
            d: base,
            imm: first.addr,
        });
        for w in &input.smc_check {
            let addr = if w.addr == first.addr {
                base
            } else {
                let a = head.vg();
                head.emit(Op::Add {
                    d: a,
                    a: Src::Imm((w.addr - first.addr) as i64),
                    b: base,
                });
                a
            };
            let mut cur = head.vg();
            head.emit(Op::Ld {
                sz: 8,
                d: cur,
                addr,
                spec: false,
            });
            if w.mask != !0 {
                let (mask, masked) = (head.vg(), head.vg());
                head.mov_imm(mask, w.mask);
                head.emit(Op::And {
                    d: masked,
                    a: Src::Reg(mask),
                    b: cur,
                });
                cur = masked;
            }
            let exp = head.vg();
            head.mov_imm(exp, w.bytes);
            let (pne, _pe) = (head.vp(), head.vp());
            head.emit(Op::Cmp {
                rel: CmpRel::Ne,
                pt: pne,
                pf: _pe,
                a: Src::Reg(cur),
                b: exp,
            });
            head.emit_pred(
                pne,
                Op::Br {
                    target: Target::Abs(StubKind::SmcFail.addr()),
                },
            );
        }
    }
    emit_spec_checks(&mut head, &fp, &xmm, input.block_id);
    // Use counter + heating trigger at every multiple of the threshold
    // (gives the paper's "registered twice" signal for free).
    if input.heat_threshold > 0 {
        let c = emit_counter_inc(&mut head, None, input.profile.uses_addr());
        let masked = head.vg();
        head.emit(Op::And {
            d: masked,
            a: Src::Imm((input.heat_threshold - 1) as i64),
            b: c,
        });
        let (p_hot, _pc) = (head.vp(), head.vp());
        head.emit(Op::Cmp {
            rel: CmpRel::Eq,
            pt: p_hot,
            pf: _pc,
            a: Src::Imm(0),
            b: masked,
        });
        head.emit_pred(
            p_hot,
            Op::Add {
                d: GR_PAYLOAD0,
                a: Src::Imm(input.block_id as i64),
                b: R0,
            },
        );
        head.emit_pred(
            p_hot,
            Op::Br {
                target: Target::Abs(StubKind::Heat.addr()),
            },
        );
    }

    let accesses = body.access_count();
    debug_assert!(
        accesses <= Profile::MISALIGN_WORDS,
        "{accesses} indexed accesses overflow the profile record's misalignment words"
    );
    // Tail: FP epilogue + terminator. Emitted into the SAME sink as the
    // body: terminator payloads (indirect-target registers, branch
    // predicates) are virtual registers from the body and must be
    // allocated in the same lowering pass.
    let mut tail = body;
    tail.set_ip(term_ip);
    templates::emit_fp_epilogue(&mut tail, &fp, &xmm);
    // Trampolines for untranslated targets, emitted after the main exit.
    let mut tramp_reqs: Vec<(u32, u32)> = Vec::new(); // (eip, local label)
    let branch_to = |tail: &mut Sink, eip: u32, tramp_reqs: &mut Vec<(u32, u32)>| {
        let l = tail.local_label();
        tramp_reqs.push((eip, l));
        Target::Label(l)
    };
    match (term, interp_bail) {
        (_, Some(ip)) => {
            // Single-step escape: state register points at the
            // instruction; the engine interprets it and re-dispatches.
            match last_state_ip {
                None => tail.emit(Op::Movl {
                    d: GR_STATE,
                    imm: ip as u64,
                }),
                Some(prev) if prev != ip => tail.emit(Op::Add {
                    d: GR_STATE,
                    a: Src::Imm(ip as i64 - prev as i64),
                    b: GR_STATE,
                }),
                _ => {}
            }
            tail.emit(Op::Br {
                target: Target::Abs(StubKind::InterpStep.addr()),
            });
        }
        (Some(Term::Jump { target }), _) => {
            let t = branch_to(&mut tail, target, &mut tramp_reqs);
            tail.emit(Op::Br { target: t });
        }
        (Some(Term::Call { target, ret }), _) => {
            if !input.plain {
                emit_shadow_push(&mut tail, ret);
            }
            let t = branch_to(&mut tail, target, &mut tramp_reqs);
            tail.emit(Op::Br { target: t });
        }
        (
            Some(Term::CondJump {
                taken_pred,
                taken,
                fallthrough,
            }),
            _,
        ) => {
            // Edge counters (paper: "an edge counter for blocks ending
            // with conditional or indirect branches").
            emit_counter_inc(&mut tail, Some(taken_pred), input.profile.taken_addr());
            let tt = branch_to(&mut tail, taken, &mut tramp_reqs);
            tail.emit_pred(taken_pred, Op::Br { target: tt });
            emit_counter_inc(&mut tail, None, input.profile.fall_addr());
            let ft = branch_to(&mut tail, fallthrough, &mut tramp_reqs);
            tail.emit(Op::Br { target: ft });
        }
        (Some(Term::Indirect { eip, kind }), _) => {
            if input.plain {
                // Demoted site: straight to the shared 2-way table (the
                // table layout is process-wide, so a demoted block still
                // uses the mixed hash), no per-site machinery.
                emit_table_probe2(&mut tail, eip, 0);
            } else {
                // Acceleration layer: calls seed the shadow stack, rets
                // pop it, jmp/call sites probe their inline cache, and
                // everyone falls back to the 2-way shared table then
                // the dispatcher.
                if let IndKind::Call { ret } = kind {
                    emit_shadow_push(&mut tail, ret);
                }
                match kind {
                    IndKind::Ret => {
                        // A pop miss drains to the dispatcher (not the
                        // inline table): the round-trip is what lets the
                        // engine count chronic mispredictions and demote
                        // this ret block to the plain probe above.
                        emit_shadow_pop(&mut tail, eip, input.block_id);
                    }
                    IndKind::Jump | IndKind::Call { .. } => {
                        emit_ic_probe(&mut tail, eip, input.profile.ic_addr());
                        emit_table_probe2(&mut tail, eip, input.profile.ic_addr());
                    }
                }
            }
        }
        (Some(Term::Halt), _) => {
            tail.emit(Op::Br {
                target: Target::Abs(StubKind::Exit.addr()),
            });
        }
        (Some(Term::Syscall { vector }), _) => {
            // State register := EIP after the INT (where execution
            // resumes); payload := vector.
            tail.emit(Op::Movl {
                d: GR_STATE,
                imm: term_ip as u64,
            });
            tail.mov_imm(GR_PAYLOAD0, vector as u64);
            tail.emit(Op::Br {
                target: Target::Abs(StubKind::Syscall.addr()),
            });
        }
        (Some(Term::InvalidOp), _) | (None, None) => {
            // UD2, undecodable tail, or a fallthrough block: for
            // fallthrough jump to the next address, otherwise raise #UD.
            if matches!(blk.end, BlockEnd::FallThrough) {
                let t = branch_to(&mut tail, blk.end_ip(), &mut tramp_reqs);
                tail.emit(Op::Br { target: t });
            } else if term == Some(Term::InvalidOp) || blk.end == BlockEnd::Stop {
                // #UD reports the invalid instruction's own address.
                let ud_ip = if term == Some(Term::InvalidOp) {
                    term_inst_ip
                } else {
                    term_ip
                };
                tail.emit(Op::Movl {
                    d: GR_STATE,
                    imm: ud_ip as u64,
                });
                tail.emit(Op::Br {
                    target: Target::Abs(StubKind::InvalidOp.addr()),
                });
            } else {
                let t = branch_to(&mut tail, term_ip, &mut tramp_reqs);
                tail.emit(Op::Br { target: t });
            }
        }
    }
    // Trampolines.
    let mut tramp_labels: Vec<(u32, u32)> = Vec::new();
    for (eip, l) in &tramp_reqs {
        tail.bind(*l);
        tail.emit(Op::Movl {
            d: GR_PAYLOAD0,
            imm: *eip as u64,
        });
        tail.emit(Op::Br {
            target: Target::Abs(StubKind::Untranslated.addr()),
        });
        tramp_labels.push((*eip, *l));
    }

    // Stitch head + (body + tail). Local labels are per-sink, so lower
    // each sink into the same CodeBuilder in order; the trampoline
    // labels come from the combined body/tail lowering.
    let mut cb = CodeBuilder::new();
    lower(&head, &mut cb).map_err(ColdGenError::Lower)?;
    let tail_labels = lower(&tail, &mut cb).map_err(ColdGenError::Lower)?;
    let native_insts = cb.len();
    let code = cb.assemble_relocatable();
    let exits = tramp_labels
        .iter()
        .map(|(eip, l)| (*eip, code.labels[tail_labels[*l as usize]]))
        .collect();

    Ok(ColdBlock {
        code,
        exits,
        ia32_insts: ia32_count,
        accesses,
        spec: input.spec,
        entry_mmx,
        native_insts,
    })
}

#[cfg(test)]
mod tests {
    use super::super::discover::discover;
    use super::super::liveness::analyze;
    use super::*;
    use crate::templates::AccessMode;
    use ia32::asm::Asm;
    use ia32::inst::AluOp;
    use ia32::mem::{GuestMem, Prot};
    use ia32::regs::{EAX, ECX};

    fn gen_block(f: impl FnOnce(&mut Asm)) -> ColdBlock {
        let mut a = Asm::new(0x1000);
        f(&mut a);
        let code = a.assemble();
        let mut mem = GuestMem::new();
        mem.map(0x1000, code.len().max(1) as u64, Prot::rx());
        mem.write_forced(0x1000, &code);
        let region = discover(&mem, 0x1000);
        let liveness = analyze(&region);
        let input = ColdGenInput {
            region: &region,
            liveness: &liveness,
            entry: 0x1000,
            block_id: 1,
            profile: Profile::OVERFLOW,
            heat_threshold: 1024,
            misalign: MisalignPlan::uniform(AccessMode::Probe, 1),
            spec: SpecSeed::default(),
            flag_liveness: true,
            fuse: true,
            inline_fp_checks: false,
            smc_check: Vec::new(),
            plain: false,
        };
        generate(&input).expect("generates")
    }

    #[test]
    fn simple_block_generates() {
        let b = gen_block(|a| {
            a.mov_ri(EAX, 5);
            a.alu_ri(AluOp::Add, EAX, 7);
            a.hlt();
        });
        assert_eq!(b.ia32_insts, 3);
        assert!(!b.code.is_empty());
        assert!(b.exits.is_empty(), "halt needs no trampoline");
    }

    #[test]
    fn cond_branch_has_two_exits() {
        let b = gen_block(|a| {
            let l = a.label();
            a.cmp_ri(EAX, 3);
            a.jcc(ia32::Cond::E, l);
            a.bind(l);
            a.hlt();
        });
        assert_eq!(b.exits.len(), 2, "taken + fallthrough trampolines");
        let eips: Vec<u32> = b.exits.iter().map(|(e, _)| *e).collect();
        assert!(eips.contains(&0x1009));
    }

    #[test]
    fn fused_cmp_jcc_has_no_flag_code() {
        let fused = gen_block(|a| {
            let l = a.label();
            a.cmp_ri(ECX, 3);
            a.jcc(ia32::Cond::L, l);
            a.bind(l);
            a.hlt();
        });
        // The same block without fusion materializes flags.
        let mut a = Asm::new(0x1000);
        let l = a.label();
        a.cmp_ri(ECX, 3);
        a.jcc(ia32::Cond::L, l);
        a.bind(l);
        a.hlt();
        let code = a.assemble();
        let mut mem = GuestMem::new();
        mem.map(0x1000, code.len() as u64, Prot::rx());
        mem.write_forced(0x1000, &code);
        let region = discover(&mem, 0x1000);
        let liveness = analyze(&region);
        let input = ColdGenInput {
            region: &region,
            liveness: &liveness,
            entry: 0x1000,
            block_id: 1,
            profile: Profile::OVERFLOW,
            heat_threshold: 1024,
            misalign: MisalignPlan::uniform(AccessMode::Probe, 1),
            spec: SpecSeed::default(),
            flag_liveness: true,
            fuse: false,
            inline_fp_checks: false,
            smc_check: Vec::new(),
            plain: false,
        };
        let unfused = generate(&input).unwrap();
        assert!(
            fused.native_insts < unfused.native_insts,
            "fusion saves instructions: {} vs {}",
            fused.native_insts,
            unfused.native_insts
        );
    }

    #[test]
    fn indirect_emits_lookup() {
        let b = gen_block(|a| {
            a.mov_ri(EAX, 0x2000);
            a.jmp_r(EAX);
        });
        // Lookup sequence present: a load from the lookup region plus
        // an indirect branch.
        let has_brret = b
            .code
            .bundles()
            .iter()
            .flat_map(|bu| bu.slots.iter())
            .any(|s| matches!(s.op, Op::BrRet { .. }));
        assert!(has_brret);
    }

    #[test]
    fn smc_prologue_emitted() {
        let mut a = Asm::new(0x1000);
        a.mov_ri(EAX, 1);
        a.hlt();
        let code = a.assemble();
        let mut mem = GuestMem::new();
        mem.map(0x1000, code.len() as u64, Prot::rx());
        mem.write_forced(0x1000, &code);
        let region = discover(&mem, 0x1000);
        let liveness = analyze(&region);
        let mk = |smc: Vec<SourceWord>| ColdGenInput {
            region: &region,
            liveness: &liveness,
            entry: 0x1000,
            block_id: 1,
            profile: Profile::OVERFLOW,
            heat_threshold: 0,
            misalign: MisalignPlan::uniform(AccessMode::Fast, 1),
            spec: SpecSeed::default(),
            flag_liveness: true,
            fuse: true,
            inline_fp_checks: false,
            smc_check: smc,
            plain: false,
        };
        let loads = |b: &ColdBlock| {
            b.code
                .bundles()
                .iter()
                .flat_map(|bu| bu.slots.iter())
                .filter(|s| matches!(s.op, Op::Ld { .. }))
                .count()
        };
        let plain = generate(&mk(Vec::new())).unwrap();
        let word = |addr, mask| SourceWord {
            addr,
            mask,
            bytes: 0xDEAD & mask,
        };
        let words = vec![word(0x1000, !0), word(0x1008, 0xFF)];
        let checked = generate(&mk(words)).unwrap();
        assert!(checked.native_insts > plain.native_insts);
        assert_eq!(loads(&checked), loads(&plain) + 2, "one load per word");
    }
}
