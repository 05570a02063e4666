//! The translation template library.
//!
//! One hand-written template per IA-32 instruction variant emits Itanium
//! micro-ops over *virtual* registers into a [`Sink`]. Both translation
//! phases consume the same templates — the paper: "The precompiled
//! binary templates and the IL-generation are derived from the same
//! template source code" — the cold backend lowers the IL immediately
//! with a trivial scratch-register allocator, the hot backend feeds it
//! to the optimizer. Cold and hot therefore cannot diverge semantically.
//!
//! Conventions the templates maintain (see [`crate::state`]):
//! * canonical guest GPRs always hold zero-extended 32-bit values;
//! * within one IA-32 instruction, all guest-state updates are emitted
//!   *after* the last faulting micro-op (paper §4, Table 1);
//! * virtual registers never live across IA-32 instruction boundaries —
//!   cross-instruction values flow through canonical state registers
//!   (the explicitly-fused compare+branch pattern is the one exception,
//!   and is emitted as a unit).

mod flags_emit;
mod fp;
mod int;
mod mem;

pub(crate) use flags_emit::ArithKind;
pub use mem::{AccessMode, AlignCache, MisalignPlan};

use crate::state;
use ia32::inst::{Class, Inst as Ia32Inst};
use ipf::inst::{Op, Src, Target};
use ipf::regs::{Fr, Gr, Pr, VIRT_BASE};

/// An emitted micro-op with provenance metadata.
#[derive(Clone, Copy, Debug)]
pub struct IlEntry {
    /// The instruction (registers may be virtual).
    pub inst: ipf::Inst,
    /// Metadata.
    pub meta: IlMeta,
}

/// Metadata attached to each emitted micro-op.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct IlMeta {
    /// IA-32 instruction this op was generated from.
    pub ia32_ip: u32,
    /// Memory-access index within the block (for misalignment
    /// profiling), if this op is a guest data access.
    pub acc: Option<u16>,
    /// The event this op's execution counts, if it is tapped.
    pub tap: Option<ipf::Tap>,
}

/// A sink item: an instruction or a local-label bind point.
#[derive(Clone, Copy, Debug)]
pub enum IlItem {
    /// An emitted instruction.
    Inst(IlEntry),
    /// Binds local label `n` here (templates with internal loops).
    Bind(u32),
}

/// Collects template output.
#[derive(Debug)]
pub struct Sink {
    /// Emitted items in program order.
    pub items: Vec<IlItem>,
    next_vg: u16,
    next_vf: u16,
    next_vp: u16,
    next_label: u32,
    next_acc: u16,
    cur_ip: u32,
    cur_acc: Option<u16>,
}

impl Default for Sink {
    fn default() -> Self {
        Self::new()
    }
}

impl Sink {
    /// An empty sink.
    pub fn new() -> Sink {
        Sink {
            items: Vec::new(),
            next_vg: VIRT_BASE,
            next_vf: VIRT_BASE,
            next_vp: VIRT_BASE,
            next_label: 0,
            next_acc: 0,
            cur_ip: 0,
            cur_acc: None,
        }
    }

    /// Sets the IA-32 IP recorded on subsequently emitted ops.
    pub fn set_ip(&mut self, ip: u32) {
        self.cur_ip = ip;
    }

    /// A fresh virtual general register.
    pub fn vg(&mut self) -> Gr {
        let r = Gr(self.next_vg);
        self.next_vg += 1;
        r
    }

    /// A fresh virtual FP register.
    pub fn vf(&mut self) -> Fr {
        let r = Fr(self.next_vf);
        self.next_vf += 1;
        r
    }

    /// A fresh virtual predicate register.
    pub fn vp(&mut self) -> Pr {
        let r = Pr(self.next_vp);
        self.next_vp += 1;
        r
    }

    /// A fresh local label id.
    pub fn local_label(&mut self) -> u32 {
        let l = self.next_label;
        self.next_label += 1;
        l
    }

    /// Number of local labels allocated.
    pub fn label_count(&self) -> u32 {
        self.next_label
    }

    /// Number of virtual general, FP and predicate registers allocated
    /// (each file numbers them densely from `VIRT_BASE`).
    pub fn virtual_counts(&self) -> [u16; 3] {
        [self.next_vg, self.next_vf, self.next_vp].map(|next| next - VIRT_BASE)
    }

    /// Number of guest memory accesses indexed so far.
    pub fn access_count(&self) -> u16 {
        self.next_acc
    }

    /// Binds a local label at the current position.
    pub fn bind(&mut self, label: u32) {
        self.items.push(IlItem::Bind(label));
    }

    /// Allocates the next memory-access index and tags the following
    /// guest access ops with it.
    pub fn begin_access(&mut self) -> u16 {
        let a = self.next_acc;
        self.next_acc += 1;
        self.cur_acc = Some(a);
        a
    }

    /// Stops tagging ops with an access index.
    pub fn end_access(&mut self) {
        self.cur_acc = None;
    }

    /// Emits an unpredicated op.
    pub fn emit(&mut self, op: Op) {
        self.emit_pred(ipf::regs::P0, op);
    }

    /// Emits a predicated op.
    pub fn emit_pred(&mut self, qp: Pr, op: Op) {
        self.items.push(IlItem::Inst(IlEntry {
            inst: ipf::Inst::pred(qp, op),
            meta: IlMeta {
                ia32_ip: self.cur_ip,
                acc: self.cur_acc,
                tap: None,
            },
        }));
    }

    /// Taps the op emitted last: the machine counts its executions
    /// ([`ipf::Tap`]), cold or hot.
    pub fn tap(&mut self, tap: ipf::Tap) {
        if let Some(IlItem::Inst(e)) = self.items.last_mut() {
            e.meta.tap = Some(tap);
        }
    }

    /// Emits `mov d = imm` choosing `adds`/`movl` by range.
    pub fn mov_imm(&mut self, d: Gr, imm: u64) {
        if (imm as i64) >= -0x1F_FFFF && (imm as i64) <= 0x1F_FFFF {
            self.emit(Op::Add {
                d,
                a: Src::Imm(imm as i64),
                b: ipf::regs::R0,
            });
        } else {
            self.emit(Op::Movl { d, imm });
        }
    }

    /// Emits a copy `d = a`.
    pub fn mov(&mut self, d: Gr, a: Gr) {
        self.emit(Op::Add {
            d,
            a: Src::Imm(0),
            b: a,
        });
    }

    /// Emits an FP copy `d = a` (bit-exact, via `fmerge.s d = a, a`).
    pub fn fmov(&mut self, d: Fr, a: Fr) {
        self.emit(Op::Fmerge {
            neg: false,
            d,
            a,
            b: a,
        });
    }

    /// Number of instruction items emitted.
    pub fn inst_count(&self) -> usize {
        self.items
            .iter()
            .filter(|i| matches!(i, IlItem::Inst(_)))
            .count()
    }
}

/// What flavor of guest control transfer produced a `Term::Indirect`.
/// Cold codegen uses it to pick the acceleration strategy: jmp/call
/// sites get a per-site inline cache, calls additionally push onto the
/// simulated return-address shadow stack, and `ret` pops it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IndKind {
    /// `jmp r/m32`.
    Jump,
    /// `call r/m32`; `ret` is the return EIP pushed on the guest stack.
    Call {
        /// Return EIP (the instruction after the call).
        ret: u32,
    },
    /// `ret` / `ret imm16`.
    Ret,
}

/// Control-flow outcome of translating one IA-32 instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Term {
    /// Unconditional jump to a guest address.
    Jump {
        /// Target EIP.
        target: u32,
    },
    /// Direct `call target`: like `Jump`, but codegen may also push a
    /// shadow-stack prediction for the matching `ret`.
    Call {
        /// Target EIP.
        target: u32,
        /// Return EIP (the instruction after the call).
        ret: u32,
    },
    /// Conditional branch: `taken_pred` selects `taken`.
    CondJump {
        /// Predicate (virtual) true when the branch is taken.
        taken_pred: Pr,
        /// Taken-target EIP.
        taken: u32,
        /// Fallthrough EIP.
        fallthrough: u32,
    },
    /// Indirect jump; the target EIP is in the given (virtual) register.
    Indirect {
        /// Register holding the target EIP.
        eip: Gr,
        /// Which guest instruction produced it.
        kind: IndKind,
    },
    /// `HLT`.
    Halt,
    /// `INT n`; EIP already conceptually advanced past it.
    Syscall {
        /// Interrupt vector.
        vector: u8,
    },
    /// `UD2` or an instruction outside the subset: raise `#UD` via the
    /// engine.
    InvalidOp,
}

/// The per-instruction emission context.
#[derive(Debug)]
pub struct EmitCtx<'a> {
    /// Address of the instruction.
    pub ip: u32,
    /// Address of the next instruction.
    pub next_ip: u32,
    /// EFLAGS status bits live *after* this instruction — only these are
    /// materialized (the paper's redundant-EFlags elimination).
    pub live_flags: u32,
    /// Of `live_flags`, those translated code may read before they are
    /// rewritten; the rest only the engine reads, and a setter may leave
    /// them to the EFLAGS thunk (`state::Eflags`).
    pub read_flags: u32,
    /// FP stack tracking state (speculated TOS etc.), updated in place.
    pub fp: &'a mut FpCtx,
    /// XMM format tracking state, updated in place.
    pub xmm: &'a mut XmmCtx,
    /// Per-access misalignment strategy.
    pub misalign: &'a MisalignPlan,
    /// Alignment-predicate reuse cache (paper §5 stage 3a), shared
    /// across the instructions of a block/trace.
    pub align: &'a mut AlignCache,
}

/// FP stack tracking across one block/trace (paper §5).
#[derive(Clone, Debug)]
pub struct FpCtx {
    /// Speculated TOS at block entry (checked at the block head).
    pub entry_tos: u8,
    /// Net TOS change so far (pushes decrement).
    pub tos_off: i8,
    /// Physical-register permutation from FXCHG elimination (hot code);
    /// identity in cold code. `perm[p]` is the FR offset actually
    /// holding x87 physical register `p`.
    pub perm: [u8; 8],
    /// Physical registers statically known valid at this point (block
    /// head checks plus in-block pushes).
    pub known_valid: u8,
    /// Physical registers statically known empty.
    pub known_empty: u8,
    /// FXCHG is eliminated via `perm` (hot) instead of emitting moves.
    pub elide_fxch: bool,
    /// True once any MMX op has set TOS=0 in this block.
    pub mmx_tos_done: bool,
    /// Tag bits required valid at entry (accumulated for the head check).
    pub req_valid: u8,
    /// Tag bits required empty at entry.
    pub req_empty: u8,
    /// Block contains FP (x87) ops.
    pub uses_fp: bool,
    /// Block contains MMX ops.
    pub uses_mmx: bool,
    /// Speculated FP/MMX mode at entry (true = MMX): the mode of the
    /// block's first FP-class instruction, verified by the head check.
    pub entry_mmx: bool,
    /// Current mode while emitting (mixed blocks emit transitions).
    pub cur_mmx: bool,
    /// Emit per-access runtime tag checks instead of the speculative
    /// block-head check — the paper's "rebuild a special block to catch
    /// the right stack fault" variant, used after a TagFix exit.
    pub inline_checks: bool,
}

impl FpCtx {
    /// Fresh context speculating entry TOS `tos`.
    pub fn new(entry_tos: u8, elide_fxch: bool) -> FpCtx {
        FpCtx {
            entry_tos,
            tos_off: 0,
            perm: [0, 1, 2, 3, 4, 5, 6, 7],
            known_valid: 0,
            known_empty: 0,
            elide_fxch,
            mmx_tos_done: false,
            req_valid: 0,
            req_empty: 0,
            uses_fp: false,
            uses_mmx: false,
            entry_mmx: false,
            cur_mmx: false,
            inline_checks: false,
        }
    }

    /// Adjusts the speculated TOS to zero (any MMX instruction forces
    /// TOS = 0 through the aliasing rule).
    pub fn force_tos_zero(&mut self) {
        let cur = self.tos() as i16;
        self.tos_off -= cur as i8;
    }

    /// Current speculated TOS.
    pub fn tos(&self) -> u8 {
        (self.entry_tos as i16 + self.tos_off as i16).rem_euclid(8) as u8
    }

    /// Physical x87 register index of `ST(i)` right now.
    pub fn phys(&self, i: u8) -> u8 {
        (self.tos() + i) & 7
    }

    /// The FR holding `ST(i)` right now (through the permutation).
    pub fn st_fr(&self, i: u8) -> Fr {
        state::x87_fr(self.perm[self.phys(i) as usize])
    }

    /// Requires `ST(i)` valid: returns `true` if a runtime tag check is
    /// still needed (not statically known).
    pub fn require_valid(&mut self, i: u8) -> bool {
        self.uses_fp = true;
        let p = self.phys(i);
        let bit = 1u8 << p;
        if self.known_valid & bit != 0 {
            return false;
        }
        if self.known_empty & bit != 0 {
            // Statically a stack fault; the caller emits the fault path.
            return true;
        }
        // Not yet constrained: add to the block-head requirement and
        // assume it from here on.
        self.req_valid |= bit;
        self.known_valid |= bit;
        false
    }

    /// Requires the push target (`ST(-1)`'s slot) empty; returns `true`
    /// if a runtime check is needed.
    pub fn require_empty_for_push(&mut self) -> bool {
        self.uses_fp = true;
        let p = (self.tos() + 7) & 7; // tos - 1
        let bit = 1u8 << p;
        if self.known_empty & bit != 0 {
            return false;
        }
        if self.known_valid & bit != 0 {
            return true; // statically overflow: caller emits fault path
        }
        self.req_empty |= bit;
        self.known_empty |= bit;
        false
    }

    /// Records a push (after checks).
    pub fn did_push(&mut self) {
        let p = (self.tos() + 7) & 7;
        self.tos_off -= 1;
        self.known_valid |= 1 << p;
        self.known_empty &= !(1 << p);
    }

    /// Records a pop.
    pub fn did_pop(&mut self) {
        let p = self.tos();
        self.tos_off += 1;
        self.known_empty |= 1 << p;
        self.known_valid &= !(1 << p);
    }
}

/// XMM format tracking across one block/trace (paper §5: the four-format
/// problem; our subset has the packed and scalar formats live).
#[derive(Clone, Debug)]
pub struct XmmCtx {
    /// Speculated entry format per XMM (bit set = scalar), checked at
    /// the block head for the registers in `used`.
    pub entry_fmt: u8,
    /// Current format per XMM (bit set = scalar).
    pub fmt: u8,
    /// XMM registers whose entry format the block head must check.
    pub used: u8,
}

impl XmmCtx {
    /// Fresh context speculating the given entry formats.
    pub fn new(entry_fmt: u8) -> XmmCtx {
        XmmCtx {
            entry_fmt,
            fmt: entry_fmt,
            used: 0,
        }
    }

    fn is_scalar(&self, n: u8) -> bool {
        self.fmt & (1 << n) != 0
    }

    fn touch(&mut self, n: u8) {
        self.used |= 1 << n;
    }

    fn set_scalar(&mut self, n: u8, scalar: bool) {
        if scalar {
            self.fmt |= 1 << n;
        } else {
            self.fmt &= !(1 << n);
        }
    }
}

/// An unsupported instruction (outside the template subset); the caller
/// falls back to single-step interpretation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Unsupported(pub &'static str);

impl std::fmt::Display for Unsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "no template for {}", self.0)
    }
}

impl std::error::Error for Unsupported {}

/// Emits the translation of one IA-32 instruction.
///
/// Returns the control-flow outcome (`None` for straight-line
/// instructions).
///
/// # Errors
///
/// [`Unsupported`] for instruction forms deliberately left to the
/// engine's single-step interpreter fallback (byte/word divides, …).
pub fn emit(
    sink: &mut Sink,
    inst: &Ia32Inst,
    ctx: &mut EmitCtx<'_>,
) -> Result<Option<Term>, Unsupported> {
    sink.set_ip(ctx.ip);
    if inst.props().class == Class::Int {
        int::emit_int(sink, inst, ctx)
    } else {
        fp::emit_fp(sink, inst, ctx)
    }
}

/// Fuses a flag-setting instruction with a following conditional branch:
/// emits the ALU instruction (with `live_flags` already excluding the
/// branch's bits) plus a direct predicate computation, returning the
/// predicates `(taken, not_taken)`. Returns `None` when the pattern
/// isn't fusable; the caller then translates the two instructions
/// separately.
///
/// This is where the paper's EFlags-elimination pays off: the common
/// `cmp`+`jcc` pair becomes a single Itanium `cmp` and a predicated
/// branch with no EFLAGS materialization at all.
pub fn emit_fused_cmp_jcc(
    sink: &mut Sink,
    alu: &Ia32Inst,
    cond: ia32::Cond,
    ctx: &mut EmitCtx<'_>,
) -> Option<(Pr, Pr)> {
    int::try_fuse(sink, alu, cond, ctx)
}

/// Emits the predicates `(true, false)` for `cond` from the
/// materialized EFLAGS register (the unfused `Jcc`/`SETcc`/`CMOVcc`
/// path).
pub fn emit_cond_pred(sink: &mut Sink, cond: ia32::Cond) -> (Pr, Pr) {
    flags_emit::cond_from_flags(sink, cond)
}

/// Emits the block-head speculation checks (paper §5): TOS, tag word,
/// FP/MMX mode, and XMM formats, each branching to the corresponding
/// fix-up stub on mismatch. Must be called *after* the block body has
/// been emitted into a separate sink, since the requirements are
/// accumulated during emission; the caller stitches head + body.
pub fn emit_spec_checks(sink: &mut Sink, fp: &FpCtx, xmm: &XmmCtx, block_id: u32) {
    use crate::layout::StubKind;
    let payload = state::GR_PAYLOAD0;
    if fp.uses_fp || fp.uses_mmx {
        // FP/MMX mode check: single Boolean compare (paper §5).
        let pt = sink.vp();
        let pf = sink.vp();
        sink.emit(Op::Cmp {
            rel: ipf::inst::CmpRel::Ne,
            pt,
            pf,
            a: Src::Imm(i64::from(fp.entry_mmx)),
            b: state::GR_FPMODE,
        });
        sink.mov_imm(payload, block_id as u64);
        sink.emit_pred(
            pt,
            Op::Br {
                target: Target::Abs(StubKind::MmxFix.addr()),
            },
        );
    }
    if fp.uses_fp {
        // TOS check.
        let pt = sink.vp();
        let pf = sink.vp();
        sink.emit(Op::Cmp {
            rel: ipf::inst::CmpRel::Ne,
            pt,
            pf,
            a: Src::Imm(fp.entry_tos as i64),
            b: state::GR_FPTOP,
        });
        sink.mov_imm(payload, block_id as u64);
        sink.emit_pred(
            pt,
            Op::Br {
                target: Target::Abs(StubKind::TosFix.addr()),
            },
        );
        // Tag check: required-valid bits set, required-empty bits clear.
        if fp.req_valid != 0 {
            let t = sink.vg();
            sink.emit(Op::And {
                d: t,
                a: Src::Imm(fp.req_valid as i64),
                b: state::GR_FPTAG,
            });
            let pt = sink.vp();
            let pf = sink.vp();
            sink.emit(Op::Cmp {
                rel: ipf::inst::CmpRel::Ne,
                pt,
                pf,
                a: Src::Imm(fp.req_valid as i64),
                b: t,
            });
            sink.emit_pred(
                pt,
                Op::Br {
                    target: Target::Abs(StubKind::TagFix.addr()),
                },
            );
        }
        if fp.req_empty != 0 {
            let t = sink.vg();
            sink.emit(Op::And {
                d: t,
                a: Src::Imm(fp.req_empty as i64),
                b: state::GR_FPTAG,
            });
            let pt = sink.vp();
            let pf = sink.vp();
            sink.emit(Op::Cmp {
                rel: ipf::inst::CmpRel::Ne,
                pt,
                pf,
                a: Src::Imm(0),
                b: t,
            });
            sink.emit_pred(
                pt,
                Op::Br {
                    target: Target::Abs(StubKind::TagFix.addr()),
                },
            );
        }
    }
    if xmm.used != 0 {
        // XMM format check over the used registers.
        let t = sink.vg();
        sink.emit(Op::And {
            d: t,
            a: Src::Imm(xmm.used as i64),
            b: state::GR_XMMFMT,
        });
        let pt = sink.vp();
        let pf = sink.vp();
        sink.emit(Op::Cmp {
            rel: ipf::inst::CmpRel::Ne,
            pt,
            pf,
            a: Src::Imm((xmm.entry_fmt & xmm.used) as i64),
            b: t,
        });
        sink.mov_imm(payload, block_id as u64);
        sink.emit_pred(
            pt,
            Op::Br {
                target: Target::Abs(StubKind::XmmFix.addr()),
            },
        );
    }
}

/// Emits the end-of-block FP state writeback: the runtime TOS register
/// and (if changed) the mode Boolean. Tag-word updates are emitted
/// incrementally by the templates themselves.
pub fn emit_fp_epilogue(sink: &mut Sink, fp: &FpCtx, xmm: &XmmCtx) {
    if fp.uses_fp && fp.tos_off != 0 {
        sink.mov_imm(state::GR_FPTOP, fp.tos() as u64);
    }
    if fp.uses_mmx && !fp.mmx_tos_done {
        // MMX ops force TOS to 0 (aliasing rule); emitted once.
        if fp.entry_tos != 0 || fp.uses_fp {
            sink.mov_imm(state::GR_FPTOP, 0);
        }
    }
    if xmm.fmt != xmm.entry_fmt {
        sink.mov_imm(state::GR_XMMFMT, xmm.fmt as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_allocates_distinct_virtuals() {
        let mut s = Sink::new();
        let a = s.vg();
        let b = s.vg();
        assert_ne!(a, b);
        assert!(a.is_virtual() && b.is_virtual());
        let p = s.vp();
        assert!(p.is_virtual());
    }

    #[test]
    fn fpctx_tracks_tos() {
        let mut fp = FpCtx::new(5, false);
        assert_eq!(fp.tos(), 5);
        assert!(!fp.require_empty_for_push());
        fp.did_push();
        assert_eq!(fp.tos(), 4);
        assert_eq!(fp.phys(0), 4);
        assert!(!fp.require_valid(0), "just pushed: no check needed");
        fp.did_pop();
        assert_eq!(fp.tos(), 5);
        assert_eq!(fp.req_empty, 1 << 4);
    }

    #[test]
    fn fpctx_head_requirements_accumulate() {
        let mut fp = FpCtx::new(0, false);
        assert!(!fp.require_valid(0)); // adds phys 0 to req_valid
        assert!(!fp.require_valid(1));
        assert_eq!(fp.req_valid, 0b11);
        // Second access to ST(0) needs no new requirement.
        let before = fp.req_valid;
        assert!(!fp.require_valid(0));
        assert_eq!(fp.req_valid, before);
    }

    #[test]
    fn xmm_ctx_tracks_formats() {
        let mut x = XmmCtx::new(0);
        assert!(!x.is_scalar(3));
        x.set_scalar(3, true);
        assert!(x.is_scalar(3));
        x.touch(3);
        assert_eq!(x.used, 0b1000);
    }

    /// A word ALU op with dead flags reads its register source once.
    /// The immediate fast path used to read any source, drop it when it
    /// was no immediate, and leave the general path to read it again.
    #[test]
    fn alu_with_dead_flags_reads_a_register_source_once() {
        use ia32::inst::{AluOp, Rm, RmI};
        use ia32::regs::{EAX, ECX};
        let inst = Ia32Inst::Alu {
            op: AluOp::Add,
            size: ia32::Size::W,
            dst: Rm::Reg(EAX),
            src: RmI::Reg(ECX),
        };
        let (mut fp, mut xmm) = (FpCtx::new(0, false), XmmCtx::new(0));
        let plan = MisalignPlan::uniform(AccessMode::Fast, 0);
        let mut ctx = EmitCtx {
            ip: 0x1000,
            next_ip: 0x1003,
            live_flags: 0,
            read_flags: 0,
            fp: &mut fp,
            xmm: &mut xmm,
            misalign: &plan,
            align: &mut AlignCache::default(),
        };
        let mut s = Sink::new();
        emit(&mut s, &inst, &mut ctx).expect("a word ADD translates");
        let ecx = state::guest_gpr(ECX.num());
        let reads_ecx = |i: &&IlItem| matches!(i, IlItem::Inst(e) if matches!(e.inst.op, Op::Xt { a, .. } if a == ecx));
        assert_eq!(s.items.iter().filter(reads_ecx).count(), 1);
    }

    #[test]
    fn spec_checks_emit_branches() {
        let mut body = Sink::new();
        let mut fp = FpCtx::new(2, false);
        fp.uses_fp = true;
        fp.req_valid = 0b101;
        let xmm = XmmCtx::new(0);
        emit_spec_checks(&mut body, &fp, &xmm, 42);
        let branches = body
            .items
            .iter()
            .filter(|i| matches!(i, IlItem::Inst(e) if e.inst.op.is_branch()))
            .count();
        assert_eq!(branches, 3, "mode check + TOS check + tag check");
    }
}
