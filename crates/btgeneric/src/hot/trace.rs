//! Hot trace selection and promotion (paper §2: "select a trace of
//! IA-32 basic blocks that compose a hyper block — single entry,
//! multiple exits ... based on the use and edge counter information
//! collected during the cold code run").

use super::commit::{HotData, RecEntry};
use super::ir;
use super::opt;
use super::regalloc;
use super::sched;
use crate::cold::discover::{discover, BlockEnd, Region};
use crate::cost;
use crate::engine::{BlockKind, Engine};
use crate::features::{Emission, Loc, Scope};
use crate::layout::{region, Predictions, StubKind};
use crate::policy;
use crate::state::{GR_PAYLOAD0, GR_PAYLOAD1, GR_XMMFMT};
use crate::templates::{self, AccessMode, IlItem, MisalignPlan, Sink, Term};
use crate::trace::EventData;
use ia32::inst::{Flow, Inst as I32};
use ipf::inst::{CmpRel, Op, Src, Target};
use std::collections::{HashMap, HashSet};

/// One step of a selected trace.
#[derive(Clone, Debug)]
pub(super) enum Step {
    /// A straight-line instruction.
    Inst {
        /// Where the instruction sits.
        at: Loc,
        /// The instruction.
        inst: I32,
        /// Executes under the preceding [`Step::Guard`]'s predicate.
        guarded: bool,
    },
    /// An if-converted hammock guard: the following `guarded` steps
    /// execute only when `cond` is false (paper: "Predication can be
    /// used to include both sides of if...then... structures").
    Guard {
        /// Condition under which the hammock body is SKIPPED.
        cond: ia32::Cond,
        /// Where the Jcc sits.
        at: Loc,
    },
    /// A devirtualized control-transfer terminator the trace continues
    /// through: a direct `call` (static target), or an indirect
    /// `jmp`/`call`/`ret` whose dominant target the per-site profile
    /// predicts. Indirect forms run under a guard comparing the actual
    /// target against `predicted`, with a side exit to the
    /// inline-cache retrain path on mismatch.
    Terminator {
        /// Where the terminator sits.
        at: Loc,
        /// The terminator instruction.
        inst: I32,
        /// Predicted continuation EIP (exact for direct calls).
        predicted: u32,
        /// Per-site inline-cache slot to retrain on guard failure
        /// (0 for site-less forms: direct call, `ret`).
        ic_slot: u64,
    },
    /// A non-devirtualizable indirect terminator the trace ends
    /// *through*: the terminator's target
    /// computation and stack effects run on the trace, followed by an
    /// inline dispatch. A `ret` (and any plain site) goes straight to
    /// the shared 2-way table probe — return addresses are typically
    /// low-degree, so the probe hits at about half the cost of the
    /// shadow-stack push/pop pairing, and matches what cold demotion
    /// converges to. Non-plain `jmp`/`call` sites keep the inline-cache
    /// probe (plus the shadow push for calls, so a still-cold callee
    /// ret finds its entry). Ending through the terminator keeps
    /// promotion successful at rotating (megamorphic) sites, which
    /// otherwise fail the devirt gate, fail promotion, and churn
    /// through demotion.
    IndirectEnd {
        /// Where the terminator sits.
        at: Loc,
        /// The terminator instruction.
        inst: I32,
        /// Per-site inline-cache slot (unused for `ret`).
        ic_slot: u64,
        /// Site goes straight to the plain 2-way table probe (demoted
        /// or profile-proven megamorphic `jmp`/`call`).
        plain: bool,
    },
    /// A conditional branch leaving the trace when `cond` holds.
    SideExit {
        /// Condition under which execution leaves the trace.
        cond: ia32::Cond,
        /// Off-trace target.
        target: u32,
        /// Where the Jcc sits.
        at: Loc,
    },
}

/// A selected trace.
pub(super) struct Trace {
    /// Selected steps.
    pub steps: Vec<Step>,
    /// Where execution continues after the last step.
    pub main_exit: u32,
    /// Cold blocks the trace covers, in order (misalignment data).
    pub blocks: Vec<u32>,
    /// The region discovered from each block start a step's [`Loc`]
    /// names, hammock bodies included (flag liveness).
    pub regions: HashMap<u32, Region>,
}

impl Trace {
    /// Every guest byte range the trace bakes in: the source of each
    /// cold block it covers, and each step's own bytes — an
    /// if-converted hammock body is decoded straight from guest memory
    /// and belongs to no cold block. Ascending, overlaps merged.
    fn source_spans(&self, engine: &Engine) -> Vec<(u32, u32)> {
        let mut spans: Vec<(u32, u32)> = self
            .blocks
            .iter()
            .map(|&id| engine.block(id).src_range)
            .collect();
        spans.extend(self.steps.iter().filter_map(|s| match *s {
            Step::Inst { at, .. } | Step::Terminator { at, .. } | Step::IndirectEnd { at, .. } => {
                Some((at.ip, at.ip + at.len as u32))
            }
            Step::Guard { .. } | Step::SideExit { .. } => None,
        }));
        spans.sort_unstable();
        let mut merged: Vec<(u32, u32)> = Vec::new();
        for (start, end) in spans {
            match merged.last_mut() {
                Some(last) if start <= last.1 => last.1 = last.1.max(end),
                _ => merged.push((start, end)),
            }
        }
        merged
    }
}

/// Instructions we refuse to put on a trace (internal control flow or
/// interpreter bail-outs).
fn trace_hostile(inst: &I32) -> bool {
    matches!(
        inst,
        I32::Movs { .. }
            | I32::Stos { .. }
            | I32::Ud2
            | I32::Hlt
            | I32::Int { .. }
            | I32::Pop {
                dst: ia32::inst::Rm::Mem(_)
            }
    ) || matches!(
        inst,
        I32::MulDiv { size, .. } if *size != ia32::Size::D
    )
}

/// Instructions safe to if-convert: their templates never emit
/// predicated micro-ops of their own, so the guard predicate can be
/// applied wholesale.
fn if_convertible(inst: &I32) -> bool {
    matches!(
        inst,
        I32::Alu { .. }
            | I32::AluRM { .. }
            | I32::Mov { .. }
            | I32::MovLoad { .. }
            | I32::Movzx { .. }
            | I32::Movsx { .. }
            | I32::Lea { .. }
            | I32::IncDec { .. }
            | I32::Not { .. }
            | I32::ImulRm { .. }
            | I32::ImulRmImm { .. }
            | I32::Nop
    )
}

/// Decodes the straight-line hammock between `from` and the join point
/// `join`; `None` unless it is short, simple, and lands exactly on the
/// join.
fn decode_hammock(mem: &ia32::GuestMem, from: u32, join: u32) -> Option<Vec<(u32, I32, u8)>> {
    if join <= from || join - from > 64 {
        return None;
    }
    let mut out = Vec::new();
    let mut ip = from;
    while ip < join {
        let (inst, len) = ia32::decode::decode_at(mem, ip)?;
        if !if_convertible(&inst) || out.len() >= 4 {
            return None;
        }
        out.push((ip, inst, len as u8));
        ip += len as u32;
    }
    (ip == join).then_some(out)
}

/// Selects a trace starting at `block_id`'s EIP.
pub(super) fn select(engine: &Engine, block_id: u32) -> Option<Trace> {
    let start = engine.block(block_id).eip;
    let budget = policy::MAX_TRACE_INSTS;
    let mut steps = Vec::new();
    let mut blocks = Vec::new();
    let mut regions = HashMap::new();
    // If-converted hammock bodies, discovered once the loop lets go of
    // `regions`.
    let mut hammocks = Vec::new();
    let mut visited = HashSet::new();
    let mut cur = start;
    let mut total = 0usize;
    // Selection-time return-address stack: a direct or devirtualized
    // call pushes its return EIP so a later `ret` on the same trace
    // continues through it exactly (still guarded at run time).
    let mut ret_stack: Vec<u32> = Vec::new();
    let main_exit;
    'outer: loop {
        if visited.contains(&cur) || total >= budget {
            main_exit = cur;
            break;
        }
        visited.insert(cur);
        // The block must have run cold (we need its counters): the live
        // generation at this EIP, not one an eviction or SMC retired.
        let Some(info) = engine.live_block(cur) else {
            main_exit = cur;
            break;
        };
        let region_g = &*regions
            .entry(cur)
            .or_insert_with(|| discover(&engine.mem, cur));
        let Some(blk) = region_g.block_at(cur) else {
            main_exit = cur;
            break;
        };
        // Source on a page the SMC governor watches can change under
        // the trace's feet. Cold blocks from it check their bytes on
        // every entry; a hot trace would bake the current bytes in with
        // no staleness check, so end the trace before the block (or
        // select nothing if it starts there).
        if engine.smc.governs((cur, blk.end_ip())) {
            main_exit = cur;
            break;
        }
        blocks.push(info.id);
        let n = blk.len();
        for (i, (ip, inst, len)) in region_g.insts(blk).iter().enumerate() {
            let at = Loc {
                ip: *ip,
                len: *len,
                block: blk.start,
                idx: i,
            };
            if total >= budget || trace_hostile(inst) {
                main_exit = *ip;
                break 'outer;
            }
            let is_term = i == n - 1 && inst.props().flow != Flow::Next;
            if is_term {
                match inst {
                    I32::Jmp { target } => {
                        cur = *target;
                        continue 'outer;
                    }
                    I32::Jcc { cond, target } => {
                        let taken = engine.mem.read(info.profile.taken_addr(), 8).unwrap_or(0);
                        let fall = engine.mem.read(info.profile.fall_addr(), 8).unwrap_or(0);
                        let next = ip + *len as u32;
                        if taken >= 2 * fall + 8 {
                            steps.push(Step::SideExit {
                                cond: cond.negate(),
                                target: next,
                                at,
                            });
                            total += 1;
                            cur = *target;
                            continue 'outer;
                        } else if fall >= 2 * taken + 8 {
                            steps.push(Step::SideExit {
                                cond: *cond,
                                target: *target,
                                at,
                            });
                            total += 1;
                            cur = next;
                            continue 'outer;
                        }
                        // No clear winner: try if-conversion of the
                        // forward hammock `jcc skip; <short block>; skip:`
                        // (paper: predication for if...then... shapes).
                        if let Some(hammock) = decode_hammock(&engine.mem, next, *target) {
                            if total + hammock.len() < budget
                                && !engine.smc.governs((next, *target))
                            {
                                steps.push(Step::Guard { cond: *cond, at });
                                total += 1;
                                hammocks.push(next);
                                for (j, (gip, ginst, glen)) in hammock.iter().enumerate() {
                                    let at = Loc {
                                        ip: *gip,
                                        len: *glen,
                                        block: next,
                                        idx: j,
                                    };
                                    steps.push(Step::Inst {
                                        at,
                                        inst: *ginst,
                                        guarded: true,
                                    });
                                    total += 1;
                                }
                                cur = *target;
                                continue 'outer;
                            }
                        }
                        // Not convertible. A trace must not die on its
                        // very first instruction (a block starting at an
                        // indecisive Jcc would stay cold forever), so in
                        // that case follow the busier side regardless.
                        if total == 0 {
                            let (cond_away, on_trace) = if taken >= fall {
                                (cond.negate(), *target)
                            } else {
                                (*cond, next)
                            };
                            let away = if on_trace == *target { next } else { *target };
                            steps.push(Step::SideExit {
                                cond: cond_away,
                                target: away,
                                at,
                            });
                            total += 1;
                            cur = on_trace;
                            continue 'outer;
                        }
                        // End the trace at this Jcc.
                        main_exit = *ip;
                        break 'outer;
                    }
                    // Calls/returns/indirects: devirtualize through the
                    // dominant target when the profile trusts it,
                    // otherwise end the trace before the terminator (a
                    // cold block starting there runs it).
                    _ => {
                        let next = ip + *len as u32;
                        let devirt = match inst {
                            // Direct call: static target, no guard.
                            I32::Call { target } => {
                                ret_stack.push(next);
                                Some((*target, 0u64))
                            }
                            // Indirect jmp/call: trust the per-site
                            // inline cache once it has proven
                            // monomorphic — the IC must have hit on
                            // a majority of the block's executions,
                            // not just an absolute count (a site
                            // rotating over k targets still hits
                            // 1/k of the time and would eventually
                            // cross any absolute threshold).
                            I32::JmpInd { .. } | I32::CallInd { .. } => {
                                let site = info.profile.site(&engine.mem);
                                if site.is_trained()
                                    && site.hits >= policy::DEVIRT_THRESHOLD
                                    && site.is_monomorphic()
                                {
                                    if matches!(inst, I32::CallInd { .. }) {
                                        ret_stack.push(next);
                                    }
                                    Some((site.pred as u32, info.profile.ic_addr()))
                                } else {
                                    None
                                }
                            }
                            // Return: exact prediction from the
                            // selection-time stack, if a matching
                            // call is on this trace.
                            I32::Ret { .. } => ret_stack.pop().map(|r| (r, 0u64)),
                            _ => None,
                        };
                        if let Some((predicted, ic_slot)) = devirt {
                            steps.push(Step::Terminator {
                                at,
                                inst: *inst,
                                predicted,
                                ic_slot,
                            });
                            total += 1;
                            cur = predicted;
                            continue 'outer;
                        }
                        // Not devirtualizable (megamorphic site or
                        // unmatched ret): the trace ends *through*
                        // the terminator — its work plus the inline
                        // dispatch run hot, and promotion succeeds
                        // instead of churning through megamorphic
                        // demotion.
                        if matches!(
                            inst,
                            I32::JmpInd { .. } | I32::CallInd { .. } | I32::Ret { .. }
                        ) {
                            // A site the profile already proves
                            // megamorphic dispatches like a demoted
                            // one up front: its inline cache would
                            // miss on (k-1)/k of executions, so the
                            // probe is pure overhead — go straight
                            // to the 2-way table.
                            let is_ret = matches!(inst, I32::Ret { .. });
                            let megamorphic = !is_ret && {
                                let site = info.profile.site(&engine.mem);
                                site.uses >= policy::MEGAMORPHIC_DEMOTE_USES
                                    && !site.is_monomorphic()
                            };
                            let plain = info.indirect_plain || megamorphic;
                            steps.push(Step::IndirectEnd {
                                at,
                                inst: *inst,
                                ic_slot: info.profile.ic_addr(),
                                plain,
                            });
                            total += 1;
                            main_exit = *ip;
                            break 'outer;
                        }
                        main_exit = *ip;
                        break 'outer;
                    }
                }
            }
            steps.push(Step::Inst {
                at,
                inst: *inst,
                guarded: false,
            });
            total += 1;
        }
        match blk.end {
            BlockEnd::FallThrough => cur = blk.end_ip(),
            _ => {
                main_exit = blk.end_ip();
                break;
            }
        }
    }
    // A trace ending through an indirect terminator pays off even when
    // short (a lone `ret` block promotes to an inline shadow pop);
    // anything else needs at least two steps to beat cold chaining.
    let ends_indirect = matches!(steps.last(), Some(Step::IndirectEnd { .. }));
    if total < 2 && !ends_indirect {
        return None;
    }
    // Loop unrolling (paper: "If a loop is identified, it may be
    // unrolled"). A trace ending in an inline dispatch has no
    // fallthrough to duplicate into.
    if !ends_indirect && main_exit == start && total * 2 <= budget + 4 {
        let copy = steps.clone();
        let bcopy = blocks.clone();
        steps.extend(copy);
        blocks.extend(bcopy);
    }
    for start in hammocks {
        regions
            .entry(start)
            .or_insert_with(|| discover(&engine.mem, start));
    }
    Some(Trace {
        steps,
        main_exit,
        blocks,
        regions,
    })
}

/// Builds the misalignment plan from the cold blocks' recorded data
/// (stage 3: "the information from cold code is examined for each of
/// the cold blocks that make up the hot block").
fn misalign_overrides(engine: &Engine, trace: &Trace) -> HashMap<u16, AccessMode> {
    let mut overrides = HashMap::new();
    let mut running: u16 = 0;
    for &bid in &trace.blocks {
        let b = engine.block(bid);
        for j in 0..b.accesses {
            let info = engine.mem.read(b.profile.misalign_addr(j), 8).unwrap_or(0);
            if info & 0x100 != 0 {
                let low = info & 0xFF;
                let gran = if low & 1 != 0 {
                    1
                } else if low & 2 != 0 {
                    2
                } else {
                    4
                };
                overrides.insert(running + j, AccessMode::AvoidKnown { gran });
            }
        }
        running += b.accesses;
    }
    overrides
}

struct ExitInfo {
    label: u32,
    target: u32,
    perm: [u8; 8],
    xmm_fmt: u8,
}

/// A devirtualization-guard side exit: restores FP/XMM state, bumps the
/// failure counters, and leaves through the `IndirectMiss` stub so the
/// dispatcher retrains the site's inline cache (`GR_PAYLOAD0`/`1` carry
/// the actual target and the site slot).
struct DevirtExit {
    label: u32,
    perm: [u8; 8],
    xmm_fmt: u8,
}

/// Promotes `block_id` into a hot trace; on any limitation the block
/// simply stays cold.
pub fn promote(engine: &mut Engine, block_id: u32) -> bool {
    let Some(trace) = select(engine, block_id) else {
        return false;
    };
    // A ret-terminated trace only earns its translation charge when the
    // dispatcher still routes returns to this block — which is exactly
    // when its cold code keeps running (callers' traces fold
    // predictable rets inline, starving the cold block). Cold code
    // re-fires the Heat stub every `heat_threshold` executions, so
    // defer to the second registration: blocks folded away never
    // re-register and stay cold for free; live return targets come
    // back one threshold window later and promote then.
    if matches!(
        trace.steps.last(),
        Some(Step::IndirectEnd {
            inst: I32::Ret { .. },
            ..
        })
    ) && engine.block(block_id).registrations < 2
    {
        return false;
    }
    engine.trace_emit(EventData::TraceSelected {
        id: block_id,
        eip: engine.block(block_id).eip,
        steps: trace.steps.len() as u32,
    });
    build_and_install(engine, block_id, &trace).is_some()
}

#[allow(clippy::too_many_lines)]
fn build_and_install(engine: &mut Engine, block_id: u32, trace: &Trace) -> Option<()> {
    let spec = engine.block(block_id).spec;
    let features = engine.cfg.features;
    let plan = MisalignPlan {
        default: features.access_mode(BlockKind::Hot),
        overrides: misalign_overrides(engine, trace),
        profile: engine.block(block_id).profile,
        block_id,
    };
    // FP context: pre-scan the trace for the entry mode.
    let straight = trace.steps.iter().filter_map(|s| match s {
        Step::Inst { inst, .. } => Some(inst),
        _ => None,
    });
    let entry_mmx = crate::cold::gen::entry_mmx(straight);
    let mut em = Emission::new(
        features,
        Scope::Hot(&trace.regions),
        &plan,
        spec,
        entry_mmx,
        false,
    );

    let mut body = Sink::new();
    let mut exits: Vec<ExitInfo> = Vec::new();
    let mut devirt_exits: Vec<DevirtExit> = Vec::new();
    let mut perm_by_ip: HashMap<u32, [u8; 8]> = HashMap::new();
    let mut ia32_count = 0u64;

    let mut i = 0usize;
    let mut guard: Option<ipf::regs::Pr> = None;
    let mut ends_indirect = false;
    while i < trace.steps.len() {
        match &trace.steps[i] {
            Step::Guard { cond, at } => {
                // The guard predicate: the hammock body runs when the
                // branch condition is FALSE.
                body.set_ip(at.ip);
                perm_by_ip.insert(at.ip, em.fp.perm);
                let (_, pf) = templates::emit_cond_pred(&mut body, *cond);
                guard = Some(pf);
                ia32_count += 1;
                i += 1;
            }
            Step::Inst { at, inst, guarded } => {
                if !*guarded {
                    guard = None;
                }
                perm_by_ip.insert(at.ip, em.fp.perm);
                // Fuse an unguarded setter with the `Jcc` after it: a side
                // exit branches on the fused `taken`, a hammock guard runs
                // its body under the fused `not_taken`, and the branch's
                // flags never go through the EFLAGS home.
                let next = trace.steps.get(i + 1);
                let jcc = match next {
                    Some(Step::SideExit { cond, at, .. } | Step::Guard { cond, at })
                        if !*guarded =>
                    {
                        Some((*cond, *at))
                    }
                    _ => None,
                };
                if let Some((cond, jcc)) = jcc {
                    if let Some((taken, not_taken)) = em.fuse(&mut body, inst, *at, cond, jcc) {
                        if let Some(Step::SideExit { target, .. }) = next {
                            let label = body.local_label();
                            body.emit_pred(
                                taken,
                                Op::Br {
                                    target: Target::Label(label),
                                },
                            );
                            exits.push(ExitInfo {
                                label,
                                target: *target,
                                perm: em.fp.perm,
                                xmm_fmt: em.xmm.fmt,
                            });
                        } else {
                            guard = Some(not_taken);
                        }
                        perm_by_ip.insert(jcc.ip, em.fp.perm);
                        ia32_count += 2;
                        i += 2;
                        continue;
                    }
                }
                let mut ctx = em.ctx(*at, *guarded);
                let before = body.items.len();
                match templates::emit(&mut body, inst, &mut ctx) {
                    Ok(None) => {}
                    // Terminators are excluded by selection.
                    Ok(Some(_)) | Err(_) => return None,
                }
                if *guarded {
                    guard_expansion(&mut body, before, guard?, at.ip)?;
                }
                ia32_count += 1;
                i += 1;
            }
            Step::Terminator {
                at,
                inst,
                predicted,
                ic_slot,
            } => {
                guard = None;
                perm_by_ip.insert(at.ip, em.fp.perm);
                let mut ctx = em.ctx(*at, false);
                match templates::emit(&mut body, inst, &mut ctx) {
                    // Direct call: the template already pushed the
                    // return address; the trace just falls through into
                    // the (static) target.
                    Ok(Some(Term::Call { .. })) => {}
                    // Indirect: guard the computed target against the
                    // prediction; on mismatch, hand the actual target
                    // and the site slot to the retrain exit.
                    Ok(Some(Term::Indirect { eip, .. })) => {
                        let c = body.vg();
                        body.mov_imm(c, *predicted as u64);
                        let pm = body.vp();
                        let pk = body.vp();
                        body.emit(Op::Cmp {
                            rel: CmpRel::Ne,
                            pt: pm,
                            pf: pk,
                            a: Src::Reg(eip),
                            b: c,
                        });
                        body.emit_pred(
                            pm,
                            Op::Add {
                                d: GR_PAYLOAD0,
                                a: Src::Imm(0),
                                b: eip,
                            },
                        );
                        body.emit_pred(
                            pm,
                            Op::Movl {
                                d: GR_PAYLOAD1,
                                imm: *ic_slot,
                            },
                        );
                        let label = body.local_label();
                        body.emit_pred(
                            pm,
                            Op::Br {
                                target: Target::Label(label),
                            },
                        );
                        devirt_exits.push(DevirtExit {
                            label,
                            perm: em.fp.perm,
                            xmm_fmt: em.xmm.fmt,
                        });
                    }
                    _ => return None,
                }
                ia32_count += 1;
                i += 1;
            }
            Step::IndirectEnd {
                at,
                inst,
                ic_slot,
                plain,
            } => {
                guard = None;
                perm_by_ip.insert(at.ip, em.fp.perm);
                // The inline dispatch hands control to arbitrary
                // translated entries, so speculative FP/XMM state must
                // sit at its canonical entry configuration. Otherwise
                // end the trace *before* the terminator instead —
                // `trace.main_exit` already points at it, so the normal
                // exit path below hands the terminator to a cold block.
                if em.fp.tos() != em.fp.entry_tos
                    || em.fp.perm != [0, 1, 2, 3, 4, 5, 6, 7]
                    || em.xmm.fmt != em.xmm.entry_fmt
                    || em.fp.cur_mmx != em.fp.entry_mmx
                {
                    break;
                }
                let mut ctx = em.ctx(*at, false);
                let Ok(Some(Term::Indirect { eip, kind })) =
                    templates::emit(&mut body, inst, &mut ctx)
                else {
                    return None;
                };
                // The same inline dispatch cold blocks end with: hit
                // paths branch straight to translated entries, the miss
                // path leaves through the IndirectMiss stub with the
                // payload registers loaded.
                body.set_ip(at.ip);
                // Every call — even a plain (megamorphic) one — seeds
                // the shadow stack: its callees' rets may still be cold
                // and popping, and chronic underflow would demote them
                // for no reason.
                if let templates::IndKind::Call { ret } = kind {
                    Predictions::emit_shadow_push(&mut body, ret);
                }
                // Rets and plain sites go straight to the 2-way table:
                // the return-address stream is low-degree in practice,
                // the probe hits inline, and this is the state cold
                // demotion converges to anyway — without a cold block's
                // dispatch and counter overhead. Other jmp/call sites
                // probe their inline cache first.
                let site = match kind {
                    templates::IndKind::Ret => 0,
                    _ if *plain => 0,
                    _ => *ic_slot,
                };
                if site != 0 {
                    Predictions::emit_ic_probe(&mut body, eip, site);
                }
                Predictions::emit_table_probe2(&mut body, eip, site);
                ends_indirect = true;
                ia32_count += 1;
                i += 1;
            }
            Step::SideExit { cond, target, at } => {
                guard = None;
                // Unfused side exit: read the materialized flags.
                body.set_ip(at.ip);
                perm_by_ip.insert(at.ip, em.fp.perm);
                let (pt, _) = templates::emit_cond_pred(&mut body, *cond);
                let label = body.local_label();
                body.emit_pred(
                    pt,
                    Op::Br {
                        target: Target::Label(label),
                    },
                );
                exits.push(ExitInfo {
                    label,
                    target: *target,
                    perm: em.fp.perm,
                    xmm_fmt: em.xmm.fmt,
                });
                ia32_count += 1;
                i += 1;
            }
        }
    }

    let Emission { fp, xmm, .. } = em;

    // A truncated trace that emitted nothing (a lone indirect terminator
    // whose FP gate failed) would install an empty self-loop.
    if ia32_count == 0 {
        return None;
    }

    // Collect the IR (validation + fault-stub state injection).
    let exit_label_ids: HashSet<u32> = exits
        .iter()
        .map(|e| e.label)
        .chain(devirt_exits.iter().map(|e| e.label))
        .collect();
    let irs = ir::collect(&body, &exit_label_ids)?;

    // Compile (forwarding, value numbering, dead code — EFLAGS and
    // guest-register writes included — per-op liveness, constraint-driven
    // allocation with spilling, backend scheduling).
    // A constraint that cannot be satisfied — a no-spill register class
    // over its pool — leaves the block cold.
    let (compiled, recovery) = compile_ir(irs, &perm_by_ip)?;

    // Head: speculation checks.
    let mut head = Sink::new();
    templates::emit_spec_checks(&mut head, &fp, &xmm, block_id);
    let mut cb = ipf::asm::CodeBuilder::new();
    crate::cold::lower::lower(&head, &mut cb).ok()?;
    let head_len = cb.len();

    // Body. A trace that loops back to its own head with unchanged FP
    // speculation state branches straight to the body (no exit block,
    // no re-check) — the common tight-loop case.
    let self_eip = engine.block(block_id).eip;
    let body_start = cb.label();
    cb.bind(body_start);
    let direct_loop = !ends_indirect
        && trace.main_exit == self_eip
        && fp.tos() == fp.entry_tos
        && fp.perm == [0, 1, 2, 3, 4, 5, 6, 7]
        && xmm.fmt == xmm.entry_fmt;
    let exit_labels: HashMap<u32, ipf::asm::Label> = exits
        .iter()
        .map(|e| e.label)
        .chain(devirt_exits.iter().map(|e| e.label))
        .map(|l| (l, cb.label()))
        .collect();
    for (inst, stop, _, tap) in &compiled {
        let mut inst = *inst;
        if let Some(Target::Label(l)) = inst.op.target() {
            inst.op.set_target(Target::Label(exit_labels[&l].0));
        }
        cb.push_inst(inst);
        if let Some(tap) = *tap {
            cb.tap(tap);
        }
        if *stop {
            cb.stop();
        }
    }

    // Exits. Side exits bump the (otherwise retired) taken-edge slot so
    // the premature-exit rate of traces is measurable (paper: ~6%).
    let exit_counter = engine.block(block_id).profile.hot_exits_addr();
    if ends_indirect {
        // The body already ends in the inline dispatch: hit paths
        // branch straight to translated entries, the miss path left
        // through the IndirectMiss stub. No fallthrough exit exists.
    } else if direct_loop {
        cb.push(Op::Br {
            target: Target::Label(body_start.0),
        });
        cb.stop();
    } else {
        emit_exit(
            engine,
            &mut cb,
            trace.main_exit,
            fp.perm,
            xmm.fmt,
            spec.xmm_fmt,
        );
    }
    for e in &exits {
        cb.bind(exit_labels[&e.label]);
        emit_exit_counter(&mut cb, exit_counter);
        emit_exit(engine, &mut cb, e.target, e.perm, e.xmm_fmt, spec.xmm_fmt);
    }
    // Devirtualization-guard failures: count them (as premature exits,
    // and tap them as guard fails), restore FP/XMM state, then leave
    // through the IndirectMiss stub — GR_PAYLOAD0/1 were loaded on the
    // guarded path, so the dispatcher retrains the site's inline cache.
    for e in &devirt_exits {
        cb.bind(exit_labels[&e.label]);
        emit_exit_counter(&mut cb, exit_counter);
        emit_exit_prologue(&mut cb, e.perm, e.xmm_fmt, spec.xmm_fmt);
        cb.push(Op::Br {
            target: Target::Abs(StubKind::IndirectMiss.addr()),
        });
        Predictions::tap_devirt_fail(&mut cb);
        cb.stop();
    }

    let code = cb.assemble_relocatable();

    // Recovery map: compiled instruction k was pushed at head_len + k.
    // Keyed by offset into `code`; it is rebased where the code lands.
    let mut hot = HotData {
        recovery,
        by_slot: HashMap::new(),
        spans: trace.source_spans(engine),
    };
    for (k, (_, _, rec, _)) in compiled.iter().enumerate() {
        if let Some(rec) = *rec {
            let (bidx, slot) = code.placements[head_len + k];
            if bidx != usize::MAX {
                hot.by_slot
                    .insert((bidx as u64 * ipf::Bundle::SIZE, slot), rec);
            }
        }
    }

    engine.machine.charge(
        region::OVERHEAD,
        ia32_count.max(1) * cost::COLD_XLATE_CYCLES * cost::HOT_XLATE_FACTOR,
    );
    engine.stats.hot_traces += 1;
    engine.stats.hot_ir_traces += 1;
    engine.stats.hot_ia32_insts += ia32_count;
    engine.stats.hot_native_insts += compiled.len() as u64;
    engine.stats.hot_commit_points += hot.recovery.len() as u64;
    engine.install_hot(block_id, code, hot, ia32_count as usize);
    Some(())
}

/// Runs the template expansion of a hammock body instruction — the
/// ops of `body` from `from` on — under the guard `g`: an unpredicated
/// op under `g`, and one the template predicates itself (a flag recipe
/// ORs its bits in under a compare's predicate) under `g` and its own
/// predicate. For that, each predicate the expansion reads is cleared
/// before it: its defs now run under `g`, so with the guard off it
/// stays false. `None` if the expansion reads a predicate it does not
/// define, which no clear could make follow the guard.
fn guard_expansion(body: &mut Sink, from: usize, g: ipf::regs::Pr, ip: u32) -> Option<()> {
    let ops = || {
        body.items[from..].iter().filter_map(|item| match item {
            IlItem::Inst(e) => Some(e.inst),
            IlItem::Bind(_) => None,
        })
    };
    let mut read: Vec<ipf::regs::Pr> = Vec::new();
    for inst in ops() {
        if inst.qp != ipf::regs::P0 && !read.contains(&inst.qp) {
            read.push(inst.qp);
        }
    }
    let defined = |p: ipf::regs::Pr| ops().any(|i| i.op.defs().contains(&ipf::inst::Reg::P(p)));
    if !read.iter().all(|&p| p.is_virtual() && defined(p)) {
        return None;
    }
    for item in &mut body.items[from..] {
        if let IlItem::Inst(e) = item {
            if e.inst.qp == ipf::regs::P0 {
                e.inst.qp = g;
            }
        }
    }
    let clears = read.into_iter().map(|p| {
        IlItem::Inst(templates::IlEntry {
            inst: ipf::Inst::new(Op::Cmp {
                rel: CmpRel::Ne,
                pt: p,
                pf: ipf::regs::P0,
                a: Src::Reg(ipf::regs::R0),
                b: ipf::regs::R0,
            }),
            meta: templates::IlMeta {
                ia32_ip: ip,
                acc: None,
                tap: None,
            },
        })
    });
    body.items.splice(from..from, clears);
    Some(())
}

/// Assigns recovery indices (commit points) to faulty ops: one
/// [`RecEntry`] per faulting IA-32 instruction, carrying the FP
/// rotation captured at emission time.
fn assign_recovery(irs: &mut [ir::IrInst], perm_by_ip: &HashMap<u32, [u8; 8]>) -> Vec<RecEntry> {
    let mut recovery: Vec<RecEntry> = Vec::new();
    let mut rec_index: HashMap<u32, u32> = HashMap::new();
    for x in irs.iter_mut() {
        if x.inst.op.props().can_fault {
            let ip = x.ia32_ip;
            let idx = *rec_index.entry(ip).or_insert_with(|| {
                let idx = recovery.len() as u32;
                recovery.push(RecEntry {
                    ia32_ip: ip,
                    perm: perm_by_ip
                        .get(&ip)
                        .copied()
                        .unwrap_or([0, 1, 2, 3, 4, 5, 6, 7]),
                });
                idx
            });
            x.rec = Some(idx);
        }
    }
    recovery
}

/// Fully lowered trace code: one `(instruction, stop bit, recovery
/// index, tap)` per emitted slot.
type CompiledCode = Vec<(ipf::Inst, bool, Option<u32>, Option<ipf::Tap>)>;

#[cfg(test)]
thread_local! {
    /// Once a test has armed it (`Some`), the allocated code of every
    /// trace this thread compiles, in compile order.
    pub(super) static ALLOCATED: std::cell::RefCell<Option<Vec<Vec<regalloc::AllocInst>>>> =
        const { std::cell::RefCell::new(None) };
}

/// The hot compiler, one pipeline: guest-state forwarding, the
/// demanded-bits bypass, LVN, dead-code elimination (EFLAGS and
/// guest-register writes included), recovery assignment, list
/// scheduling of the virtual code, per-op liveness with
/// constraint-driven allocation (spilling under general-register
/// pressure), and the backend pass over the allocated code (stop bits,
/// then each group ordered for the templates). `None` when a constraint
/// cannot be satisfied.
///
/// A bypass shortens a chain but lengthens the live range of the value
/// it reads through, and the scheduler may group the result worse, so a
/// trace it changes is compiled both ways and the one the backend's cost
/// function prices lower is kept (the bypassed one on a tie).
fn compile_ir(
    mut irs: Vec<ir::IrInst>,
    perm_by_ip: &HashMap<u32, [u8; 8]>,
) -> Option<(CompiledCode, Vec<RecEntry>)> {
    checked("forward_state", &mut irs, |irs| {
        opt::forward_state(irs);
        (0..irs.len()).collect()
    });
    let mut narrowed = irs.clone();
    let mut bypassed = false;
    checked("demanded_bits", &mut narrowed, |irs| {
        bypassed = opt::demanded_bits(irs);
        (0..irs.len()).collect()
    });
    let narrow = bypassed.then(|| backend(narrowed, perm_by_ip)).flatten();
    let wide = match &narrow {
        Some(n) => backend(irs, perm_by_ip).filter(|w| w.cost < n.cost),
        None => backend(irs, perm_by_ip),
    };
    let chosen = wide.or(narrow)?;
    #[cfg(debug_assertions)]
    super::eval::trace_validated();
    #[cfg(test)]
    ALLOCATED.with_borrow_mut(|seen| {
        if let Some(seen) = seen {
            seen.push(chosen.alloc.clone());
        }
    });
    Some((chosen.code, chosen.recovery))
}

/// One way of compiling a trace, priced.
struct Compiled {
    #[cfg(test)]
    alloc: Vec<regalloc::AllocInst>,
    code: CompiledCode,
    recovery: Vec<RecEntry>,
    /// What the code costs on the issue model: cycles, then `nop`s
    /// (`sched::schedule_allocated`).
    cost: (u64, usize),
}

/// The passes after the bypass: value numbering, dead code, recovery
/// assignment, scheduling and allocation.
fn backend(mut irs: Vec<ir::IrInst>, perm_by_ip: &HashMap<u32, [u8; 8]>) -> Option<Compiled> {
    checked("lvn", &mut irs, opt::lvn);
    checked("dead_code", &mut irs, opt::dead_code);
    let recovery = assign_recovery(&mut irs, perm_by_ip);
    // Reorder while still virtual (no false dependences), then allocate
    // in the scheduled order — the new program order for liveness and
    // every later pass.
    let insts: Vec<ipf::Inst> = irs.iter().map(|x| x.inst).collect();
    let order = sched::schedule_ir(&insts);
    let irs: Vec<ir::IrInst> = order.iter().map(|&k| irs[k].clone()).collect();
    let alloc = regalloc::allocate(&irs)?;
    let (slots, cost) = sched::schedule_allocated(&alloc);
    let code = slots
        .into_iter()
        .map(|(inst, stop, src)| {
            let ir = src.map(|s| &irs[s]);
            (inst, stop, ir.and_then(|x| x.rec), ir.and_then(|x| x.tap))
        })
        .collect();
    Some(Compiled {
        #[cfg(test)]
        alloc,
        code,
        recovery,
        cost,
    })
}

/// Runs one pass over the IR; `pass` returns, per op it leaves, that
/// op's index in its input. On a thread whose test asked for it, a
/// debug build checks what the pass made of the trace against what it
/// was given on the reference evaluator (`eval::assert_preserves`).
fn checked(
    name: &str,
    irs: &mut Vec<ir::IrInst>,
    pass: impl FnOnce(&mut Vec<ir::IrInst>) -> Vec<usize>,
) {
    #[cfg(debug_assertions)]
    let before: Option<Vec<ipf::Inst>> =
        super::eval::validating().then(|| irs.iter().map(|x| x.inst).collect());
    let from = pass(irs);
    #[cfg(debug_assertions)]
    if let Some(before) = before {
        let after: Vec<ipf::Inst> = irs.iter().map(|x| x.inst).collect();
        super::eval::assert_preserves(name, &before, &after, &from);
    }
    #[cfg(not(debug_assertions))]
    let _ = (name, from);
}

/// Emits a side-exit counter increment (uses caller-saved hot scratch).
fn emit_exit_counter(cb: &mut ipf::asm::CodeBuilder, slot: u64) {
    use ipf::regs::Gr;
    let (a, c) = (
        Gr(crate::state::GR_SCRATCH),
        Gr(crate::state::GR_SCRATCH + 1),
    );
    cb.push(Op::Movl { d: a, imm: slot });
    cb.stop();
    cb.push(Op::Ld {
        sz: 8,
        d: c,
        addr: a,
        spec: false,
    });
    cb.stop();
    cb.push(Op::Add {
        d: c,
        a: Src::Imm(1),
        b: c,
    });
    cb.stop();
    cb.push(Op::St {
        sz: 8,
        addr: a,
        val: c,
    });
    cb.stop();
}

/// Emits an exit block: FXCHG-permutation restore, XMM format-status
/// writeback, then a branch to the target (direct when translated).
fn emit_exit(
    engine: &Engine,
    cb: &mut ipf::asm::CodeBuilder,
    target: u32,
    perm: [u8; 8],
    xmm_fmt: u8,
    entry_fmt: u8,
) {
    emit_exit_prologue(cb, perm, xmm_fmt, entry_fmt);
    // The payload load must survive chaining: if the target block is
    // later evicted, eviction re-points this branch at the
    // `Untranslated` stub, which reads the guest EIP from `GR_PAYLOAD0`.
    cb.push(Op::Movl {
        d: GR_PAYLOAD0,
        imm: target as u64,
    });
    cb.stop();
    let entry = engine.entry_of_existing(target);
    cb.push(Op::Br {
        target: Target::Abs(entry.unwrap_or(StubKind::Untranslated.addr())),
    });
    cb.stop();
}

/// The state-restore half of an exit block: FXCHG-permutation restore
/// and XMM format-status writeback (shared by target exits and
/// devirtualization-guard exits).
fn emit_exit_prologue(cb: &mut ipf::asm::CodeBuilder, perm: [u8; 8], xmm_fmt: u8, entry_fmt: u8) {
    // Restore the identity FP mapping (value of physical p lives in
    // FR perm[p]); swap chains via the reserved temp f63.
    if perm != [0, 1, 2, 3, 4, 5, 6, 7] {
        let mut cur = perm;
        let fr = |p: u8| ipf::regs::Fr(crate::state::FR_X87 + p as u16);
        let temp = ipf::regs::Fr(63);
        for start in 0..8u8 {
            while cur[start as usize] != start {
                let from = cur[start as usize];
                cb.push(Op::Fmerge {
                    neg: false,
                    d: temp,
                    a: fr(start),
                    b: fr(start),
                });
                cb.stop();
                cb.push(Op::Fmerge {
                    neg: false,
                    d: fr(start),
                    a: fr(from),
                    b: fr(from),
                });
                cb.stop();
                cb.push(Op::Fmerge {
                    neg: false,
                    d: fr(from),
                    a: temp,
                    b: temp,
                });
                cb.stop();
                cur.swap(start as usize, from as usize);
            }
        }
    }
    if xmm_fmt != entry_fmt {
        cb.push(Op::Add {
            d: GR_XMMFMT,
            a: Src::Imm(xmm_fmt as i64),
            b: ipf::regs::R0,
        });
        cb.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::ALLOCATED;
    use crate::engine::tests::NullOs;
    use crate::engine::{Config, Engine, Outcome};
    use crate::state::Eflags;
    use ia32::asm::{Asm, Image};
    use ia32::inst::{Addr, AluOp, Inst as I32, Rm, RmI};
    use ia32::regs::{EAX, EBX, ECX, EDI, EDX, ESI};
    use ia32::{Cond, Size};
    use ipf::inst::{Op, Reg};
    use ipf::regs::P0;

    /// Whether the value of `r` before op `at` of `code` depends on a
    /// read of the EFLAGS home or its thunk: walks the defs back.
    fn reads_eflags(code: &[ipf::Inst], at: usize, r: Reg) -> bool {
        let Some(def) = (0..at).rev().find(|&k| code[k].op.defs().contains(&r)) else {
            return false;
        };
        code[def].op.uses().into_iter().any(|u| match u {
            Reg::G(g) if Eflags::is_home(g) => true,
            _ => reads_eflags(code, def, u),
        })
    }

    /// A fused setter guards its hammock with its own predicate: for
    /// each setter that fuses, a loop whose `setter ; je` closes an
    /// if-converted body that stores. The store's qualifying predicate
    /// must not come from the EFLAGS home — before the fusion, the
    /// setter wrote ZF there and the guard read it back with `tbit`.
    #[test]
    fn a_fused_hammock_guard_reads_no_flags_back() {
        let alu = |op| I32::Alu {
            op,
            size: Size::D,
            dst: Rm::Reg(EAX),
            src: RmI::Reg(EDX),
        };
        let setters = [
            alu(AluOp::Cmp),
            I32::Test {
                size: Size::D,
                a: Rm::Reg(EAX),
                b: RmI::Reg(EDX),
            },
            alu(AluOp::Sub),
            alu(AluOp::And),
            alu(AluOp::Or),
            alu(AluOp::Xor),
            I32::IncDec {
                inc: true,
                size: Size::D,
                dst: Rm::Reg(EAX),
            },
            I32::IncDec {
                inc: false,
                size: Size::D,
                dst: Rm::Reg(EAX),
            },
        ];
        for setter in setters {
            // EAX alternates between 0 and 1 (-1 and 0 before an INC),
            // EDX is 1 for TEST and AND and 0 otherwise, so the branch
            // is taken on every other iteration.
            let (bias, mask) = match setter {
                I32::IncDec { inc: true, .. } => (-1, 0),
                I32::Test { .. } | I32::Alu { op: AluOp::And, .. } => (0, 1),
                _ => (0, 0),
            };
            let mut a = Asm::new(0x40_0000);
            a.mov_ri(ESI, 0x50_0000);
            a.mov_ri(ECX, 300);
            a.mov_ri(EDI, 0);
            let (top, skip) = (a.label(), a.label());
            a.bind(top);
            a.mov_rr(EAX, ECX);
            a.alu_ri(AluOp::And, EAX, 1);
            a.alu_ri(AluOp::Add, EAX, bias);
            a.mov_ri(EDX, mask);
            a.inst(setter);
            a.jcc(Cond::E, skip);
            a.lea(EDI, Addr::base_disp(EDI, 3));
            a.mov_store(Addr::base_disp(ESI, 0), EDI);
            a.bind(skip);
            a.mov_rr(EBX, ECX);
            a.dec(ECX);
            a.jcc(Cond::Ne, top);
            a.hlt();
            let image = Image::from_asm(&a).with_bss(0x50_0000, 0x1000);
            let mut mem = ia32::mem::GuestMem::new();
            let cpu = image.load(&mut mem);
            let cfg = Config {
                heat_threshold: 16,
                hot_candidates: 1,
                ..Config::default()
            };
            ALLOCATED.set(Some(Vec::new()));
            let outcome = Engine::new(mem, cfg).run(&mut NullOs, cpu, u64::MAX / 2);
            let traces = ALLOCATED.take().expect("armed above");
            assert!(
                matches!(outcome, Outcome::Halted(_)),
                "{setter}: {outcome:?}"
            );
            let mut guarded = 0;
            for alloc in &traces {
                let code: Vec<ipf::Inst> = alloc.iter().map(|x| x.inst).collect();
                for (k, inst) in code.iter().enumerate() {
                    if matches!(inst.op, Op::St { .. }) && inst.qp != P0 {
                        guarded += 1;
                        assert!(
                            !reads_eflags(&code, k, Reg::P(inst.qp)),
                            "{setter} ; je: the guard of `{inst}` reads EFLAGS back"
                        );
                    }
                }
            }
            assert!(guarded > 0, "{setter} ; je: no guarded store on a trace");
        }
    }
}
