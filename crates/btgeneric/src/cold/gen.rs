//! Cold-code generation (paper §2, Figure 1): basic-block granularity,
//! template-driven, with instrumentation for later hot translation —
//! a use counter with a heating check, edge counters on conditional
//! branches, misalignment probes, speculation head-checks, and the
//! IA-32 state register updates that make cold exceptions precise.

use super::discover::{BlockEnd, Region};
use super::lower::{lower, LowerError};
use crate::features::{Emission, Features, Loc, Scope};
use crate::layout::{Predictions, Profile, StubKind};
use crate::state::{GR_PAYLOAD0, GR_STATE};
use crate::templates::{self, emit_spec_checks, IndKind, MisalignPlan, Sink, Term};
use ia32::inst::{Class, Inst as I32};
use ipf::asm::{CodeBuilder, Relocatable};
use ipf::inst::{CmpRel, Op, Src, Target};
use ipf::regs::R0;

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
    /// The ablation knobs.
    pub features: Features,
    /// Emit inline (per-access) FP tag checks even with FP speculation
    /// on — the post-TagFix variant.
    pub inline_fp: bool,
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

/// Points the IA-32 state register at `ip`, given the address it last
/// held (`None`: nothing yet in this block).
fn set_state_ip(sink: &mut Sink, last: Option<u32>, ip: u32) {
    match last {
        None => sink.emit(Op::Movl {
            d: GR_STATE,
            imm: ip as u64,
        }),
        Some(prev) if prev != ip => sink.emit(Op::Add {
            d: GR_STATE,
            a: Src::Imm(ip as i64 - prev as i64),
            b: GR_STATE,
        }),
        _ => {}
    }
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
    let mut em = Emission::new(
        input.features,
        Scope::Cold(input.region),
        &input.misalign,
        input.spec,
        entry_mmx,
        input.inline_fp,
    );

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
        let at = Loc {
            ip,
            len,
            block: blk.start,
            idx: i,
        };
        term_ip = ip + len as u32;

        // Update the IA-32 state register before faulting instructions.
        if inst.props().can_fault {
            set_state_ip(&mut body, last_state_ip, ip);
            last_state_ip = Some(ip);
        }

        // Compare+branch fusion (paper: EFlags elimination).
        if let Some(&(jcc_ip, I32::Jcc { cond, target }, jlen)) = insts.get(i + 1) {
            let jcc = Loc {
                ip: jcc_ip,
                len: jlen,
                idx: i + 1,
                ..at
            };
            if let Some(pt) = em.fuse(&mut body, &inst, at, cond, jcc) {
                let j_next = jcc_ip + jlen as u32;
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

        match templates::emit(&mut body, &inst, &mut em.ctx(at, false)) {
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
    emit_spec_checks(&mut head, &em.fp, &em.xmm, input.block_id);
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
    templates::emit_fp_epilogue(&mut tail, &em.fp, &em.xmm);
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
            set_state_ip(&mut tail, last_state_ip, ip);
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
                Predictions::emit_shadow_push(&mut tail, ret);
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
                Predictions::emit_table_probe2(&mut tail, eip, 0);
            } else {
                // Acceleration layer: calls seed the shadow stack, rets
                // pop it, jmp/call sites probe their inline cache, and
                // everyone falls back to the 2-way shared table then
                // the dispatcher.
                if let IndKind::Call { ret } = kind {
                    Predictions::emit_shadow_push(&mut tail, ret);
                }
                match kind {
                    IndKind::Ret => {
                        // A pop miss drains to the dispatcher (not the
                        // inline table): the round-trip is what lets the
                        // engine count chronic mispredictions and demote
                        // this ret block to the plain probe above.
                        Predictions::emit_shadow_pop(&mut tail, eip, input.block_id);
                    }
                    IndKind::Jump | IndKind::Call { .. } => {
                        Predictions::emit_ic_probe(&mut tail, eip, input.profile.ic_addr());
                        Predictions::emit_table_probe2(&mut tail, eip, input.profile.ic_addr());
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
        let input = ColdGenInput {
            region: &region,
            entry: 0x1000,
            block_id: 1,
            profile: Profile::OVERFLOW,
            heat_threshold: 1024,
            misalign: MisalignPlan::uniform(AccessMode::Probe, 1),
            spec: SpecSeed::default(),
            features: Features::default(),
            inline_fp: false,
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
        let (_, no_fusion) = Features::ablations()
            .into_iter()
            .find(|&(knob, _)| knob == "no-fusion")
            .unwrap();
        let input = ColdGenInput {
            region: &region,
            entry: 0x1000,
            block_id: 1,
            profile: Profile::OVERFLOW,
            heat_threshold: 1024,
            misalign: MisalignPlan::uniform(AccessMode::Probe, 1),
            spec: SpecSeed::default(),
            features: no_fusion,
            inline_fp: false,
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
        let mk = |smc: Vec<SourceWord>| ColdGenInput {
            region: &region,
            entry: 0x1000,
            block_id: 1,
            profile: Profile::OVERFLOW,
            heat_threshold: 0,
            misalign: MisalignPlan::uniform(AccessMode::Fast, 1),
            spec: SpecSeed::default(),
            features: Features::default(),
            inline_fp: false,
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
