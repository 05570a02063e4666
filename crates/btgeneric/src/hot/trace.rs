#![warn(clippy::too_many_lines)]

//! Hot trace selection and promotion (paper §2: "select a trace of
//! IA-32 basic blocks that compose a hyper block — single entry,
//! multiple exits ... based on the use and edge counter information
//! collected during the cold code run").
//!
//! A selected trace is a small graph: [`Block`]s in the order they run,
//! each a straight run of guest instructions closed by one control
//! decision (its [`End`]), and how many times the whole runs back to
//! back (the loop unroll). The walk in [`select`] asks one pure function
//! of profile counts and limits per decision; emission lowers each
//! block's run and then its end.

use super::commit::{HotData, RecEntry};
use super::ir;
use super::opt;
use super::regalloc;
use super::sched;
use crate::cold::discover::{discover, BlockEnd, DiscInst, Region};
use crate::cost;
use crate::engine::{BlockInfo, BlockKind, Engine};
use crate::features::{Emission, Loc, Scope};
use crate::layout::{region, Event, Predictions, Site, StubKind};
use crate::policy;
use crate::state::{GR_PAYLOAD0, GR_PAYLOAD1, GR_XMMFMT};
use crate::templates::{self, AccessMode, IlItem, MisalignPlan, Sink, Term};
use crate::trace::EventData;
use ia32::inst::{Flow, Inst as I32};
use ia32::Cond;
use ipf::inst::{CmpRel, Op, Src, Target};
use ipf::regs::Pr;
use std::collections::{HashMap, HashSet};
use std::ops::ControlFlow::{self, Break, Continue};

/// A straight run of guest instructions between two control decisions.
/// It is not a cold block: the walk runs on through a `jmp` and through
/// a block that falls through, so a setter reached through a `jmp`
/// still sits right before the `Jcc` it fuses with.
#[derive(Debug)]
pub(super) struct Block {
    /// The run, in order.
    pub insts: Vec<(Loc, I32)>,
    /// The decision that closes it.
    pub end: End,
}

/// The control decision that closes a [`Block`].
#[derive(Debug)]
pub(super) enum End {
    /// A conditional branch leaving the trace when `cond` holds.
    SideExit {
        /// Where the `Jcc` sits.
        jcc: Loc,
        /// Condition under which execution leaves the trace.
        cond: Cond,
        /// Off-trace target.
        to: u32,
        /// The branch's taken and fall-through counts it was chosen on,
        /// for a policy that prices shapes by them (ROADMAP item 25(a)).
        #[cfg_attr(not(test), allow(dead_code))]
        edges: (u64, u64),
    },
    /// An if-converted hammock (paper: "Predication can be used to
    /// include both sides of if...then... structures"): `body` runs
    /// under a guard; the trace goes on at the join. Unless the guard
    /// prices higher than leaving ([`side_exits`]): then it is lowered
    /// as a side exit, and the trace follows the busier side.
    Hammock {
        /// Where the `Jcc` sits.
        jcc: Loc,
        /// Condition under which the body is SKIPPED.
        cond: Cond,
        /// The guarded body.
        body: Vec<(Loc, I32)>,
        /// The branch's taken and fall-through counts.
        edges: (u64, u64),
    },
    /// A direct `call`, or an indirect `jmp`/`call`/`ret` whose target
    /// is predicted (and guarded at run time), the trace continues
    /// through.
    Devirt {
        /// The terminator (`ic_slot` 0 for site-less forms: direct
        /// call, `ret`).
        term: Transfer,
        /// Predicted continuation EIP (exact for direct calls).
        predicted: u32,
    },
    /// An indirect terminator that cannot be devirtualized, which the
    /// trace ends *through* with an inline dispatch, so promotion
    /// succeeds at rotating (megamorphic) sites instead of churning
    /// through demotion.
    Indirect {
        /// The terminator.
        term: Transfer,
        /// The dispatch skips the inline-cache probe ([`plain`]).
        plain: bool,
    },
    /// The trace ends: execution continues at [`Trace::main_exit`].
    Exit,
}

impl End {
    /// The IA-32 instructions the decision adds to the trace.
    fn steps(&self) -> usize {
        match self {
            End::SideExit { .. } | End::Devirt { .. } | End::Indirect { .. } => 1,
            End::Hammock { body, .. } => 1 + body.len(),
            End::Exit => 0,
        }
    }
}

/// A call, return or indirect branch that ends a [`Block`].
#[derive(Debug)]
pub(super) struct Transfer {
    /// Where it sits.
    pub at: Loc,
    /// The instruction.
    pub inst: I32,
    /// Its site's inline-cache slot: retrained when a devirtualization
    /// guard fails, probed by an indirect end.
    pub ic_slot: u64,
}

/// A selected trace.
#[derive(Default)]
pub(super) struct Trace {
    /// The blocks in order; the last ends in an exit or indirect end.
    pub blocks: Vec<Block>,
    /// How many times the blocks run back to back: 2 for an unrolled
    /// loop, whose [`End::Exit`] then leads into the next copy.
    pub unroll: usize,
    /// Where execution continues after the last block.
    pub main_exit: u32,
    /// Cold blocks the walk covered, hammock bodies' included, in order
    /// (misalignment data).
    pub cold: Vec<u32>,
    /// The regions a [`Loc`] names, by entry (flag liveness): one at
    /// each cold block the walk takes, and one at each hammock body its
    /// `Jcc`'s region does not cover.
    pub regions: HashMap<u32, Region>,
}

impl Trace {
    /// One copy's instructions, hammock bodies included, terminators not.
    fn insts(&self) -> impl Iterator<Item = &(Loc, I32)> {
        self.blocks.iter().flat_map(|b| {
            let body = match &b.end {
                End::Hammock { body, .. } => &body[..],
                _ => &[],
            };
            b.insts.iter().chain(body)
        })
    }

    /// The IA-32 instructions the trace emits, unroll included.
    pub fn steps(&self) -> usize {
        let once = self.blocks.iter().map(|b| b.insts.len() + b.end.steps());
        self.unroll * once.sum::<usize>()
    }

    /// The decision that ends the trace.
    fn end(&self) -> Option<&End> {
        self.blocks.last().map(|b| &b.end)
    }

    /// The runs to lower with the block whose decision comes after each,
    /// unroll included: a copy's last run leads straight into the next
    /// copy's first, so a setter at the bottom of the loop fuses with a
    /// branch at its top as it would in the guest.
    fn unrolled(&self) -> Vec<(Vec<(Loc, I32)>, usize)> {
        let mut runs = Vec::new();
        let mut run: Vec<(Loc, I32)> = Vec::new();
        for copy in 1..=self.unroll {
            for (i, b) in self.blocks.iter().enumerate() {
                run.extend_from_slice(&b.insts);
                if copy == self.unroll || !matches!(b.end, End::Exit) {
                    runs.push((std::mem::take(&mut run), i));
                }
            }
        }
        runs
    }

    /// Every guest byte range the trace bakes in: each cold block's
    /// source and each instruction's bytes (a hammock body belongs to no
    /// cold block). Ascending, overlaps merged.
    fn source_spans(&self, engine: &Engine) -> Vec<(u32, u32)> {
        let terminators = self.blocks.iter().filter_map(|b| match &b.end {
            End::Devirt { term, .. } | End::Indirect { term, .. } => Some(&term.at),
            _ => None,
        });
        let locs = self.insts().map(|(at, _)| at).chain(terminators);
        let mut spans: Vec<_> = self
            .cold
            .iter()
            .map(|&id| engine.block(id).src_range)
            .collect();
        spans.extend(locs.map(|at| (at.ip, at.ip + at.len as u32)));
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
    match inst {
        I32::Movs { .. } | I32::Stos { .. } | I32::Ud2 | I32::Hlt | I32::Int { .. } => true,
        I32::Pop { dst } => matches!(dst, ia32::inst::Rm::Mem(_)),
        I32::MulDiv { size, .. } => *size != ia32::Size::D,
        _ => false,
    }
}

/// Instructions safe to if-convert: the forms a hammock body may hold.
/// A template that predicates ops of its own (a flag recipe ORing its
/// bits in under a compare's predicate) runs them under the guard and
/// their own predicate ([`guard_expansion`]).
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
fn decode_hammock(mem: &ia32::GuestMem, from: u32, join: u32) -> Option<Vec<DiscInst>> {
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

/// Pairs each instruction of the block starting at `block` in the
/// region entered at `region` with its [`Loc`].
fn located(insts: Vec<DiscInst>, region: u32, block: u32) -> impl Iterator<Item = (Loc, I32)> {
    let at = move |idx, ip, len| Loc {
        ip,
        len,
        region,
        block,
        idx,
    };
    let insts = insts.into_iter().enumerate();
    insts.map(move |(idx, (ip, inst, len))| (at(idx, ip, len), inst))
}

// The shape decisions, each a pure function of profile counts and
// limits.

/// The 2:1 bias rule: the side of a conditional branch the trace
/// follows, with a side exit on the other (`Some(true)`: taken), when
/// that side ran at least twice as often as the other, plus 8.
fn biased(taken: u64, fall: u64) -> Option<bool> {
    let wins = |a: u64, b: u64| a >= 2 * b + 8;
    (wins(taken, fall) || wins(fall, taken)).then_some(taken > fall)
}

/// Whether an unbiased branch's hammock is if-converted rather than
/// ending the trace: its `body` decoded, fits in the `budget` after the
/// `total` instructions already selected, and is not on a page the SMC
/// governor watches (a trace bakes its bytes in unchecked).
fn if_converts(body: Option<usize>, total: usize, budget: usize, governed: bool) -> bool {
    body.is_some_and(|n| total + n < budget) && !governed
}

/// The side an unbiased branch that side-exits follows (`true`: taken):
/// the busier one. That is an unconvertible branch at the trace's very
/// first step, where a trace must not die or a block starting at such a
/// branch stays cold forever, and a hammock whose guard prices higher
/// than leaving ([`side_exits`]).
fn busier_side(taken: u64, fall: u64) -> bool {
    taken >= fall
}

/// Whether a hammock's branch side-exits on its busier side instead of
/// guarding the body: the guard adds `delta` cycles to each of the busier
/// side's passes, and leaving costs `exit` cycles on each of the other
/// side's and `once` cycles one time (the translation of a trace the
/// exit's target would come to head). The passes priced are the ones the
/// profile saw, taken as the number still to come. Side-exit iff
/// `(n - m) * delta > m * exit + once`, with `n` the branch's executions
/// and `m` the rarer side's; a tie keeps the guard.
fn side_exits(taken: u64, fall: u64, delta: i64, exit: u64, once: u64) -> bool {
    let m = taken.min(fall);
    let busier = (taken + fall - m) as i128;
    busier * delta as i128 > m as i128 * exit as i128 + once as i128
}

/// Whether a side exit into `to` makes it head a trace it would not head
/// otherwise. An unbiased hammock's rarer side runs about a third of the
/// time or more, so in a loop that keeps running the target heats, unless
/// heat never promotes, the target heads `block_id`'s own trace, or its
/// cold block is hot or has registered as hot already.
fn heads_a_trace(engine: &Engine, block_id: u32, to: u32) -> bool {
    let own = to == engine.block(block_id).eip;
    let heated = engine
        .live_block(to)
        .is_some_and(|b| b.kind == BlockKind::Hot || b.registrations > 0);
    engine.cfg.heat_threshold > 0 && !own && !heated
}

/// The devirtualization gate: where the trace continues through a
/// direct `call`, an indirect `jmp`/`call`, or a `ret`, and the slot
/// its guard retrains (0: site-less); `None` ends the trace. An indirect
/// site must be monomorphic — a site rotating over k targets still hits
/// 1/k of the time and would cross any absolute threshold. A call
/// pushes its return address `next` on `stack`; a `ret` pops it.
fn devirtualize(
    inst: &I32,
    next: u32,
    site: &Site,
    ic_slot: u64,
    stack: &mut Vec<u32>,
) -> Option<(u32, u64)> {
    match inst {
        I32::Call { target } => {
            stack.push(next);
            Some((*target, 0))
        }
        I32::JmpInd { .. } | I32::CallInd { .. }
            if site.is_trained()
                && site.hits >= policy::DEVIRT_THRESHOLD
                && site.is_monomorphic() =>
        {
            if matches!(inst, I32::CallInd { .. }) {
                stack.push(next);
            }
            Some((site.pred as u32, ic_slot))
        }
        I32::Ret { .. } => stack.pop().map(|r| (r, 0)),
        _ => None,
    }
}

/// Whether the indirect terminator `inst` a trace ends through
/// dispatches plain, straight to the 2-way table: its block was
/// `demoted` to plain, or it is a `jmp`/`call` whose profile already
/// proves the site megamorphic, so its inline cache would miss on
/// (k-1)/k of executions and the probe is pure overhead.
fn plain(inst: &I32, demoted: bool, site: &Site) -> bool {
    let megamorphic = site.uses >= policy::MEGAMORPHIC_DEMOTE_USES && !site.is_monomorphic();
    demoted || !matches!(inst, I32::Ret { .. }) && megamorphic
}

/// How many copies of a trace of `total` instructions are emitted
/// (paper: "If a loop is identified, it may be unrolled"): two of one
/// that `loops` back to its head while they fit the `budget` with a
/// little slack.
fn unroll(loops: bool, total: usize, budget: usize) -> usize {
    1 + usize::from(loops && total * 2 <= budget + 4)
}

/// A trace being selected. A step of the walk continues at an EIP or
/// breaks with the trace's main exit.
struct Selection<'e> {
    engine: &'e Engine,
    trace: Trace,
    /// The open block's run.
    run: Vec<(Loc, I32)>,
    /// IA-32 instructions selected so far.
    total: usize,
    /// Return addresses of the calls on the trace so far.
    ret_stack: Vec<u32>,
}

impl Selection<'_> {
    /// Closes the open block with `end`.
    fn close(&mut self, end: End) {
        self.total += end.steps();
        let insts = std::mem::take(&mut self.run);
        self.trace.blocks.push(Block { insts, end });
    }

    /// Walks from `start` until a limit or a decision ends the trace;
    /// returns where execution continues after it.
    fn walk(&mut self, start: u32) -> u32 {
        let mut visited = HashSet::new();
        let mut cur = start;
        while visited.insert(cur) && self.total < policy::MAX_TRACE_INSTS {
            match self.cold_block(cur) {
                Continue(next) => cur = next,
                Break(exit) => return exit,
            }
        }
        cur
    }

    /// Takes the cold block at `cur` onto the open run.
    fn cold_block(&mut self, cur: u32) -> ControlFlow<u32, u32> {
        let engine = self.engine;
        // The block must have run cold (we need its counters): the live
        // generation at this EIP, not one an eviction or SMC retired.
        let Some(info) = engine.live_block(cur) else {
            return Break(cur);
        };
        let regions = &mut self.trace.regions;
        let region = &*regions
            .entry(cur)
            .or_insert_with(|| discover(&engine.mem, cur));
        let Some(blk) = region.block_at(cur) else {
            return Break(cur);
        };
        // Source on a page the SMC governor watches can change under
        // the trace's feet. Cold blocks from it check their bytes on
        // every entry; a hot trace would bake the current bytes in with
        // no staleness check, so end the trace before the block (or
        // select nothing if it starts there).
        if engine.smc.governs((cur, blk.end_ip())) {
            return Break(cur);
        }
        let (n, end, end_ip) = (blk.len(), blk.end, blk.end_ip());
        let insts = region.insts(blk).to_vec();
        self.trace.cold.push(info.id);
        for (at, inst) in located(insts, cur, cur) {
            if self.total >= policy::MAX_TRACE_INSTS || trace_hostile(&inst) {
                return Break(at.ip);
            }
            if at.idx == n - 1 && inst.props().flow != Flow::Next {
                return self.decide(at, inst, info);
            }
            self.run.push((at, inst));
            self.total += 1;
        }
        match end {
            BlockEnd::FallThrough => Continue(end_ip),
            _ => Break(end_ip),
        }
    }

    /// The decision at the terminator `inst` of the cold block `info`.
    fn decide(&mut self, at: Loc, inst: I32, info: &BlockInfo) -> ControlFlow<u32, u32> {
        let engine = self.engine;
        let (cond, target) = match inst {
            I32::Jmp { target } => return Continue(target),
            I32::Jcc { cond, target } => (cond, target),
            _ => return self.transfer(at, inst, info),
        };
        let count = |addr| engine.mem.read(addr, 8).unwrap_or(0);
        let [taken, fall] = [info.profile.taken_addr(), info.profile.fall_addr()].map(count);
        let (total, budget) = (self.total, policy::MAX_TRACE_INSTS);
        let mut side_exit = |on_taken| {
            let next = at.ip + at.len as u32;
            let (cond, to, on_trace) = match on_taken {
                true => (cond.negate(), next, target),
                false => (cond, target, next),
            };
            self.close(End::SideExit {
                jcc: at,
                cond,
                to,
                edges: (taken, fall),
            });
            Continue(on_trace)
        };
        if let Some(on_taken) = biased(taken, fall) {
            return side_exit(on_taken);
        }
        // No clear winner: try if-conversion of the forward hammock
        // `jcc skip; <short block>; skip:` (paper: predication for
        // if...then... shapes).
        let next = at.ip + at.len as u32;
        let hammock = decode_hammock(&engine.mem, next, target);
        let governed = engine.smc.governs((next, target));
        let fits = if_converts(hammock.as_ref().map(Vec::len), total, budget, governed);
        if let Some(body) = hammock.filter(|_| fits) {
            // The body's flag liveness comes from the Jcc's region, which
            // reaches the loop around it where one discovered at the body
            // start may not; the latter only if the former misses it.
            let regions = &mut self.trace.regions;
            let covered = regions[&at.region]
                .block_at(next)
                .is_some_and(|b| b.len() >= body.len());
            if !covered {
                regions
                    .entry(next)
                    .or_insert_with(|| discover(&engine.mem, next));
            }
            let region = if covered { at.region } else { next };
            // The body's accesses read their misalignment data from the
            // cold block that ran it.
            if let Some(b) = engine.live_block(next) {
                self.trace.cold.push(b.id);
            }
            let (jcc, body) = (at, located(body, region, next).collect());
            let edges = (taken, fall);
            self.close(End::Hammock {
                jcc,
                cond,
                body,
                edges,
            });
            return Continue(target);
        }
        if total == 0 {
            return side_exit(busier_side(taken, fall));
        }
        // End the trace at this Jcc.
        Break(at.ip)
    }

    /// Calls, returns and indirect branches: devirtualize when the
    /// profile trusts it; otherwise end the trace through an indirect
    /// terminator, or before any other one.
    fn transfer(&mut self, at: Loc, inst: I32, info: &BlockInfo) -> ControlFlow<u32, u32> {
        let site = info.profile.site(&self.engine.mem);
        let (next, ic_addr) = (at.ip + at.len as u32, info.profile.ic_addr());
        let stack = &mut self.ret_stack;
        if let Some((predicted, ic_slot)) = devirtualize(&inst, next, &site, ic_addr, stack) {
            let term = Transfer { at, inst, ic_slot };
            self.close(End::Devirt { term, predicted });
            return Continue(predicted);
        }
        if inst.props().flow == Flow::Indirect {
            let plain = plain(&inst, info.indirect_plain, &site);
            let ic_slot = ic_addr;
            let term = Transfer { at, inst, ic_slot };
            self.close(End::Indirect { term, plain });
        }
        Break(at.ip)
    }
}

/// Selects a trace starting at `block_id`'s EIP.
pub(super) fn select(engine: &Engine, block_id: u32) -> Option<Trace> {
    let start = engine.block(block_id).eip;
    let mut sel = Selection {
        engine,
        trace: Trace::default(),
        run: Vec::new(),
        total: 0,
        ret_stack: Vec::new(),
    };
    let main_exit = sel.walk(start);
    let ends_indirect = matches!(sel.trace.end(), Some(End::Indirect { .. }));
    // A trace ending through an indirect terminator pays off even when
    // short (a lone `ret` block promotes to an inline shadow pop);
    // anything else needs at least two steps to beat cold chaining.
    if sel.total < 2 && !ends_indirect {
        return None;
    }
    // A trace ending in an inline dispatch has no fallthrough to
    // duplicate into.
    let loops = !ends_indirect && main_exit == start;
    sel.trace.unroll = unroll(loops, sel.total, policy::MAX_TRACE_INSTS);
    sel.trace.main_exit = main_exit;
    if !ends_indirect {
        sel.close(End::Exit);
    }
    Some(sel.trace)
}

/// The misalignment plan from the cold blocks' recorded data (stage 3:
/// "the information from cold code is examined for each of the cold
/// blocks that make up the hot block"), by instruction address: the
/// finest granularity its accesses' recorded low address bits allow.
fn misalign_overrides(engine: &Engine, trace: &Trace) -> HashMap<u32, AccessMode> {
    let mut low: HashMap<u32, u64> = HashMap::new();
    for &bid in &trace.cold {
        let b = engine.block(bid);
        for (j, &ip) in b.access_ips.iter().enumerate() {
            let info = engine
                .mem
                .read(b.profile.misalign_addr(j as u16), 8)
                .unwrap_or(0);
            if info & 0x100 != 0 {
                *low.entry(ip).or_default() |= info & 0xFF;
            }
        }
    }
    let gran = |low: u64| 1 << (low | 4).trailing_zeros();
    low.into_iter()
        .map(|(ip, low)| (ip, AccessMode::AvoidKnown { gran: gran(low) }))
        .collect()
}

/// A side exit of the trace body and the FP/XMM state it restores.
struct ExitInfo {
    label: u32,
    /// The index of the [`Block`] whose end leaves through it.
    block: usize,
    /// Off-trace target; `None` for a devirtualization-guard failure,
    /// which leaves through the `IndirectMiss` stub to retrain the site.
    to: Option<u32>,
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
    if let Some(End::Indirect { term, .. }) = trace.end() {
        if matches!(term.inst, I32::Ret { .. }) && engine.block(block_id).registrations < 2 {
            return false;
        }
    }
    engine.trace_emit(EventData::TraceSelected {
        id: block_id,
        eip: engine.block(block_id).eip,
        steps: trace.steps() as u32,
    });
    build_and_install(engine, block_id, &trace).is_some()
}

/// A trace body being lowered to IL, and what its exits and head need.
struct Lowering<'e> {
    em: Emission<'e>,
    body: Sink,
    exits: Vec<ExitInfo>,
    /// The FP rotation at each IA-32 instruction (recovery).
    perm_by_ip: HashMap<u32, [u8; 8]>,
    ia32_count: u64,
    /// The body ends in an inline dispatch: there is no fallthrough.
    ends_indirect: bool,
    /// The index of the [`Block`] being lowered.
    block_index: usize,
}

impl Lowering<'_> {
    /// Records the FP rotation in force at `ip`.
    fn perm(&mut self, ip: u32) {
        self.perm_by_ip.insert(ip, self.em.fp.perm);
    }

    /// Lowers one run and the decision after it; the run's last
    /// instruction fuses with a conditional end. A hammock that `exits`
    /// is lowered as a side exit on its busier side instead of a guard.
    fn block(&mut self, insts: &[(Loc, I32)], end: &End, exits: bool) -> Option<()> {
        let (setter, run) = match (end, insts.split_last()) {
            (End::SideExit { .. } | End::Hammock { .. }, Some((last, run))) => (Some(last), run),
            _ => (None, insts),
        };
        for (at, inst) in run {
            self.inst(*at, inst, None)?;
        }
        match end {
            End::SideExit { jcc, cond, to, .. } => {
                let (taken, _) = self.branch(setter, *jcc, *cond)?;
                self.side_exit(taken, Some(*to));
            }
            End::Hammock {
                jcc,
                cond,
                body,
                edges: (taken, fall),
            } => {
                let (skip, guard) = self.branch(setter, *jcc, *cond)?;
                if !exits {
                    let checks = self.em.align_checks();
                    for (at, inst) in body {
                        self.inst(*at, inst, Some(guard))?;
                    }
                    self.em.end_guard(&checks);
                } else if busier_side(*taken, *fall) {
                    self.side_exit(guard, Some(jcc.ip + jcc.len as u32));
                } else {
                    let join = body.last().map(|(at, _)| at.ip + at.len as u32)?;
                    self.side_exit(skip, Some(join));
                    for (at, inst) in body {
                        self.inst(*at, inst, None)?;
                    }
                }
            }
            End::Devirt { term, predicted } => self.devirt(term, *predicted)?,
            End::Indirect { term, plain } => self.indirect(term, *plain)?,
            End::Exit => {}
        }
        Some(())
    }

    /// Emits one straight-line instruction; a hammock body instruction
    /// runs under `guard`.
    fn inst(&mut self, at: Loc, inst: &I32, guard: Option<Pr>) -> Option<()> {
        self.perm(at.ip);
        let mut ctx = self.em.ctx(at, guard.is_some());
        let before = self.body.items.len();
        match templates::emit(&mut self.body, inst, &mut ctx) {
            Ok(None) => {}
            // Terminators are excluded by selection.
            Ok(Some(_)) | Err(_) => return None,
        }
        if let Some(guard) = guard {
            guard_expansion(&mut self.body, before, guard, at.ip)?;
        }
        self.ia32_count += 1;
        Some(())
    }

    /// Emits the branch at `jcc` on `cond`, fused with `setter`, the
    /// run's last instruction, if it can be: then its flags never go
    /// through the EFLAGS home. Returns the predicates `(taken,
    /// not_taken)`; unfused, they read the materialized flags.
    fn branch(&mut self, setter: Option<&(Loc, I32)>, jcc: Loc, cond: Cond) -> Option<(Pr, Pr)> {
        if let Some((at, inst)) = setter {
            self.perm(at.ip);
            if let Some(preds) = self.em.fuse(&mut self.body, inst, *at, cond, jcc) {
                self.perm(jcc.ip);
                self.ia32_count += 2;
                return Some(preds);
            }
            self.inst(*at, inst, None)?;
        }
        self.body.set_ip(jcc.ip);
        self.perm(jcc.ip);
        self.ia32_count += 1;
        Some(templates::emit_cond_pred(&mut self.body, cond))
    }

    /// A side exit taken under `pred` (see [`ExitInfo::to`]).
    fn side_exit(&mut self, pred: Pr, to: Option<u32>) {
        let label = self.body.local_label();
        let target = Target::Label(label);
        self.body.emit_pred(pred, Op::Br { target });
        #[cfg(debug_assertions)]
        self.body.tap(Event::ExitTaken.tap(true));
        let (perm, xmm_fmt) = (self.em.fp.perm, self.em.xmm.fmt);
        self.exits.push(ExitInfo {
            label,
            block: self.block_index,
            to,
            perm,
            xmm_fmt,
        });
    }

    /// A devirtualized terminator. A direct call's template pushes the
    /// return address; an indirect form's computed target is guarded
    /// against the prediction, its failure exit retrains the site.
    fn devirt(&mut self, term: &Transfer, predicted: u32) -> Option<()> {
        self.perm(term.at.ip);
        let emitted = templates::emit(&mut self.body, &term.inst, &mut self.em.ctx(term.at, false));
        let body = &mut self.body;
        match emitted {
            Ok(Some(Term::Call { .. })) => {}
            Ok(Some(Term::Indirect { eip, .. })) => {
                let c = body.vg();
                body.mov_imm(c, predicted as u64);
                let (pt, pf) = (body.vp(), body.vp());
                let (rel, a, b) = (CmpRel::Ne, Src::Reg(eip), c);
                body.emit(Op::Cmp { rel, pt, pf, a, b });
                let (d, a) = (GR_PAYLOAD0, Src::Imm(0));
                body.emit_pred(pt, Op::Add { d, a, b: eip });
                let (d, imm) = (GR_PAYLOAD1, term.ic_slot);
                body.emit_pred(pt, Op::Movl { d, imm });
                self.side_exit(pt, None);
            }
            _ => return None,
        }
        self.ia32_count += 1;
        Some(())
    }

    /// The indirect terminator the trace ends through, then the inline
    /// dispatch cold blocks end with. The entries it reaches need the
    /// FP/XMM state at its canonical entry configuration; otherwise
    /// nothing is emitted, and the main exit hands the terminator to a
    /// cold block.
    fn indirect(&mut self, term: &Transfer, plain: bool) -> Option<()> {
        self.perm(term.at.ip);
        let em = &mut self.em;
        if em.fp.tos() != em.fp.entry_tos
            || em.fp.perm != [0, 1, 2, 3, 4, 5, 6, 7]
            || em.xmm.fmt != em.xmm.entry_fmt
            || em.fp.cur_mmx != em.fp.entry_mmx
        {
            return Some(());
        }
        let body = &mut self.body;
        let ctx = &mut em.ctx(term.at, false);
        let Ok(Some(Term::Indirect { eip, kind })) = templates::emit(body, &term.inst, ctx) else {
            return None;
        };
        body.set_ip(term.at.ip);
        // Every call — even a plain (megamorphic) one — seeds the shadow
        // stack: its callees' rets may still be cold and popping, and
        // chronic underflow would demote them for no reason.
        if let templates::IndKind::Call { ret } = kind {
            Predictions::emit_shadow_push(body, ret);
        }
        // Rets and plain sites go straight to the 2-way table: the
        // return-address stream is low-degree in practice, the probe
        // hits inline, and this is the state cold demotion converges to
        // anyway — without a cold block's dispatch and counter
        // overhead. Other jmp/call sites probe their inline cache first.
        let site = match kind {
            templates::IndKind::Ret => 0,
            _ if plain => 0,
            _ => term.ic_slot,
        };
        if site != 0 {
            let ic = Predictions::emit_ic_load(body, site);
            Predictions::emit_ic_probe(body, eip, ic);
        }
        Predictions::emit_table_probe2(body, eip, site);
        self.ends_indirect = true;
        self.ia32_count += 1;
        Some(())
    }
}

/// Lowers `trace` to IL under `plan`: each run, then its decision, a
/// hammock as a side exit where `exits` says so (by block index).
/// `None` also when nothing was emitted (a lone indirect terminator
/// whose FP gate failed), which would install an empty self-loop.
fn lower<'e>(
    engine: &Engine,
    trace: &'e Trace,
    plan: &'e MisalignPlan,
    exits: &[bool],
) -> Option<Lowering<'e>> {
    // FP context: pre-scan the trace for the entry mode.
    let entry_mmx = crate::cold::gen::entry_mmx(trace.insts().map(|(_, inst)| inst));
    let (features, spec) = (engine.cfg.features, engine.block(plan.block_id).spec);
    let scope = Scope::Hot(&trace.regions);
    let mut lo = Lowering {
        em: Emission::new(features, scope, plan, spec, entry_mmx, false),
        body: Sink::new(),
        exits: Vec::new(),
        perm_by_ip: HashMap::new(),
        ia32_count: 0,
        ends_indirect: false,
        block_index: 0,
    };
    for (run, i) in trace.unrolled() {
        lo.block_index = i;
        lo.block(&run, &trace.blocks[i].end, exits[i])?;
    }
    (lo.ia32_count > 0).then_some(lo)
}

/// Builds the trace and installs it. Each hammock is priced both ways
/// in turn, first to last: the trace compiled as chosen so far against
/// the same trace with that hammock lowered as a side exit instead, the
/// cheaper kept ([`side_exits`]). Each candidate compiles once, and the
/// one kept is the one installed.
fn build_and_install(engine: &mut Engine, block_id: u32, trace: &Trace) -> Option<()> {
    let default = engine.cfg.features.access_mode(BlockKind::Hot);
    let plan = MisalignPlan {
        by_ip: misalign_overrides(engine, trace),
        profile: engine.block(block_id).profile,
        ..MisalignPlan::uniform(default, block_id)
    };
    let mut exits = vec![false; trace.blocks.len()];
    let mut best = compile(engine, block_id, trace, &plan, &exits, None)?;
    for (i, b) in trace.blocks.iter().enumerate() {
        let End::Hammock {
            edges: (taken, fall),
            ..
        } = b.end
        else {
            continue;
        };
        exits[i] = true;
        let alt = compile(engine, block_id, trace, &plan, &exits, Some(i));
        let keep = alt.as_ref().is_some_and(|alt| {
            // A trace the exit's target comes to head translates about
            // as much as this one, headed in the same loop.
            let translation = best.lo.ia32_count * cost::COLD_XLATE_CYCLES * cost::HOT_XLATE_FACTOR;
            let heads = alt
                .targets
                .iter()
                .filter(|&&to| heads_a_trace(engine, block_id, to));
            let once = heads.count() as u64 * translation;
            side_exits(taken, fall, best.cost() - alt.cost(), alt.exit, once)
        });
        match alt {
            Some(alt) if keep => best = alt,
            _ => exits[i] = false,
        }
    }
    install(engine, block_id, trace, best)
}

/// A trace lowered and compiled, priced.
struct Candidate<'e> {
    lo: Lowering<'e>,
    compiled: Compiled,
    /// What leaving through the side exits of the block being priced
    /// costs, summed over them ([`exit_price`]).
    exit: u64,
    /// Where those side exits go, each target once.
    targets: Vec<u32>,
}

impl Candidate<'_> {
    /// What the compiled body costs on the issue model, in cycles.
    fn cost(&self) -> i64 {
        self.compiled.cost.0 as i64
    }
}

/// Lowers `trace` under `plan`, a hammock as a side exit where `exits`
/// says so, and compiles it; `priced` names the block whose side exits
/// [`Candidate::exit`] prices.
fn compile<'e>(
    engine: &Engine,
    block_id: u32,
    trace: &'e Trace,
    plan: &'e MisalignPlan,
    exits: &[bool],
    priced: Option<usize>,
) -> Option<Candidate<'e>> {
    let lo = lower(engine, trace, plan, exits)?;

    // Collect the IR (validation + fault-stub state injection).
    let exit_label_ids: HashSet<u32> = lo.exits.iter().map(|e| e.label).collect();
    let irs = ir::collect(&lo.body, &exit_label_ids)?;

    // Compile (forwarding, value numbering, dead code — EFLAGS and
    // guest-register writes included — per-op liveness, constraint-driven
    // allocation with spilling, backend scheduling).
    // A constraint that cannot be satisfied — a no-spill register class
    // over its pool — leaves the block cold.
    let compiled = compile_ir(irs, &lo.perm_by_ip)?;
    let entry_fmt = engine.block(block_id).spec.xmm_fmt;
    let priced: Vec<&ExitInfo> = lo
        .exits
        .iter()
        .filter(|e| Some(e.block) == priced)
        .collect();
    let exit = priced
        .iter()
        .filter_map(|e| Some(exit_price(engine, e.to?, e.perm, e.xmm_fmt, entry_fmt)))
        .sum();
    let mut targets: Vec<u32> = priced.iter().filter_map(|e| e.to).collect();
    targets.sort_unstable();
    targets.dedup();
    Some(Candidate {
        lo,
        compiled,
        exit,
        targets,
    })
}

/// Assembles the chosen candidate and installs it as `block_id`'s hot
/// generation.
fn install(engine: &mut Engine, block_id: u32, trace: &Trace, chosen: Candidate<'_>) -> Option<()> {
    let (code, head_len) = assemble(engine, block_id, trace, &chosen.lo, &chosen.compiled.code)?;
    let (compiled, ia32_count) = (chosen.compiled, chosen.lo.ia32_count);
    #[cfg(test)]
    ALLOCATED.with_borrow_mut(|seen| {
        if let Some(seen) = seen {
            seen.push(compiled.alloc.clone());
        }
    });
    // Recovery map: compiled instruction k was pushed at head_len + k.
    // Keyed by offset into `code`; it is rebased where the code lands.
    let mut hot = HotData {
        recovery: compiled.recovery,
        by_slot: HashMap::new(),
        spans: trace.source_spans(engine),
    };
    for (k, (_, _, rec, _)) in compiled.code.iter().enumerate() {
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
    engine.stats.hot_native_insts += compiled.code.len() as u64;
    engine.stats.hot_commit_points += hot.recovery.len() as u64;
    engine.install_hot(block_id, code, hot, ia32_count as usize);
    Some(())
}

/// Assembles the trace: the speculation-check head, the compiled body,
/// and its exits. Returns the code and the head's length in slots.
fn assemble(
    engine: &Engine,
    block_id: u32,
    trace: &Trace,
    lo: &Lowering<'_>,
    compiled: &CompiledCode,
) -> Option<(ipf::asm::Relocatable, usize)> {
    let (fp, xmm) = (&lo.em.fp, &lo.em.xmm);
    let entry_fmt = engine.block(block_id).spec.xmm_fmt;
    // Head: speculation checks.
    let mut head = Sink::new();
    templates::emit_spec_checks(&mut head, fp, xmm, block_id);
    let mut cb = ipf::asm::CodeBuilder::new();
    crate::cold::lower::lower(&head, &mut cb).ok()?;
    let head_len = cb.len();

    // Body. A trace that loops back to its own head with unchanged FP
    // speculation state branches straight to the body (no exit block,
    // no re-check) — the common tight-loop case.
    let body_start = cb.label();
    cb.bind(body_start);
    let direct_loop = !lo.ends_indirect
        && trace.main_exit == engine.block(block_id).eip
        && fp.tos() == fp.entry_tos
        && fp.perm == [0, 1, 2, 3, 4, 5, 6, 7]
        && xmm.fmt == xmm.entry_fmt;
    // Exit blocks: the side exits, then the devirtualization-guard
    // failures.
    let (side, devirt): (Vec<&ExitInfo>, Vec<&ExitInfo>) =
        lo.exits.iter().partition(|e| e.to.is_some());
    let exit_labels: HashMap<u32, ipf::asm::Label> = side
        .iter()
        .chain(&devirt)
        .map(|e| (e.label, cb.label()))
        .collect();
    for (inst, stop, _, tap) in compiled {
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

    // Exits. The branch closing the trace and each side exit's are
    // tapped: what they count only a report reads.
    if lo.ends_indirect {
        // The body already ends in the inline dispatch: hit paths
        // branch straight to translated entries, the miss path left
        // through the IndirectMiss stub. No fallthrough exit exists.
    } else if direct_loop {
        let target = Target::Label(body_start.0);
        cb.push(Op::Br { target });
        cb.tap(Event::TraceEnd.tap(true));
        cb.stop();
    } else {
        let to = trace.main_exit;
        emit_exit(engine, &mut cb, to, fp.perm, xmm.fmt, entry_fmt);
        cb.tap(Event::TraceEnd.tap(true));
    }
    for e in side.into_iter().chain(devirt) {
        cb.bind(exit_labels[&e.label]);
        let Some(target) = e.to else {
            // A guard failure, also tapped as one: GR_PAYLOAD0/1 were
            // loaded on the guarded path.
            emit_exit_prologue(&mut cb, e.perm, e.xmm_fmt, entry_fmt);
            cb.push(Op::Br {
                target: Target::Abs(StubKind::IndirectMiss.addr()),
            });
            Predictions::tap_devirt_fail(&mut cb);
            cb.stop();
            continue;
        };
        emit_exit(engine, &mut cb, target, e.perm, e.xmm_fmt, entry_fmt);
        cb.tap(Event::HotExit.tap(true));
    }
    Some((cb.assemble_relocatable(), head_len))
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
    /// trace this thread installs, in install order.
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
fn compile_ir(mut irs: Vec<ir::IrInst>, perm_by_ip: &HashMap<u32, [u8; 8]>) -> Option<Compiled> {
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
    #[cfg(debug_assertions)]
    super::eval::trace_validated();
    wide.or(narrow)
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

/// What leaving through a side exit to `target` costs on the issue
/// model: its branch's taken bubble, then the exit block it enters,
/// as [`assemble`] emits it, run through.
fn exit_price(engine: &Engine, target: u32, perm: [u8; 8], xmm_fmt: u8, entry_fmt: u8) -> u64 {
    let mut cb = ipf::asm::CodeBuilder::new();
    emit_exit(engine, &mut cb, target, perm, xmm_fmt, entry_fmt);
    sched::taken_exit_cost(&cb.assemble(0).0)
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
                for (d, a) in [(temp, fr(start)), (fr(start), fr(from)), (fr(from), temp)] {
                    let neg = false;
                    cb.push(Op::Fmerge { neg, d, a, b: a });
                    cb.stop();
                }
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
    use super::{biased, busier_side, devirtualize, heads_a_trace, if_converts, plain, select};
    use super::{side_exits, unroll, Block, End, ALLOCATED};
    use crate::engine::tests::NullOs;
    use crate::engine::{Config, Engine, Outcome};
    use crate::layout::Site;
    use crate::policy::{DEVIRT_THRESHOLD, MAX_TRACE_INSTS, MEGAMORPHIC_DEMOTE_USES};
    use crate::state::Eflags;
    use ia32::asm::{Asm, Image};
    use ia32::inst::{Addr, AluOp, Inst as I32, Rm, RmI};
    use ia32::regs::{EAX, EBX, ECX, EDI, EDX, ESI};
    use ia32::{Cond, Size};
    use ipf::inst::{Op, Reg};
    use ipf::regs::P0;

    /// A side wins the bias rule at twice the other's count plus 8, and
    /// not one below it, either way round.
    #[test]
    fn the_bias_rule_follows_a_side_at_twice_the_other_plus_eight() {
        for other in [0, 1, 10, 1_000] {
            let wins = 2 * other + 8;
            assert_eq!(
                biased(wins, other),
                Some(true),
                "taken {wins}, fall {other}"
            );
            assert_eq!(
                biased(wins - 1, other),
                None,
                "taken {}, fall {other}",
                wins - 1
            );
            assert_eq!(
                biased(other, wins),
                Some(false),
                "taken {other}, fall {wins}"
            );
            assert_eq!(
                biased(other, wins - 1),
                None,
                "taken {other}, fall {}",
                wins - 1
            );
        }
    }

    /// An unbiased branch if-converts its hammock only if the body
    /// decoded, leaves the budget one more instruction, and is not on a
    /// governed page; otherwise the trace ends there.
    #[test]
    fn a_hammock_converts_when_decoded_within_budget_and_ungoverned() {
        let budget = MAX_TRACE_INSTS;
        assert!(if_converts(Some(2), 10, budget, false));
        assert!(!if_converts(None, 10, budget, false), "not decodable");
        assert!(if_converts(Some(2), budget - 3, budget, false));
        assert!(
            !if_converts(Some(2), budget - 2, budget, false),
            "over budget"
        );
        assert!(
            !if_converts(Some(2), 10, budget, true),
            "on a governed page"
        );
    }

    /// An unbiased, unconvertible branch at the trace's first step
    /// follows its busier side, the taken one on a tie.
    #[test]
    fn a_first_step_branch_follows_its_busier_side() {
        assert!(busier_side(5, 4));
        assert!(busier_side(4, 4));
        assert!(!busier_side(3, 4));
    }

    /// A hammock side-exits on its busier side exactly when the guard's
    /// cycles on the busier side's passes exceed leaving's on the rarer
    /// side's plus what leaving costs once, `(n - m) * delta > m * exit +
    /// once`; a tie, or a guard no dearer than the exit shape, keeps the
    /// guard.
    #[test]
    fn a_hammock_side_exits_when_its_guard_prices_above_leaving() {
        // 50/50: side-exit iff the guard adds more than leaving costs.
        assert!(side_exits(500, 500, 5, 4, 0));
        assert!(!side_exits(500, 500, 4, 4, 0), "a tie keeps the guard");
        assert!(side_exits(500, 500, 4, 3, 0));
        // 3:1 either way round: 300 * delta against 100 * exit.
        for (taken, fall) in [(300, 100), (100, 300)] {
            assert!(side_exits(taken, fall, 2, 5, 0), "{taken}/{fall}");
            assert!(!side_exits(taken, fall, 2, 6, 0), "{taken}/{fall}: tie");
            assert!(!side_exits(taken, fall, 1, 4, 0), "{taken}/{fall}");
        }
        // A one-time cost weighs against the passes' whole saving:
        // 500 * 5 - 500 * 4 = 500.
        assert!(side_exits(500, 500, 5, 4, 499));
        assert!(!side_exits(500, 500, 5, 4, 500), "a tie keeps the guard");
        // A guard that costs nothing, or less than the exit shape.
        assert!(!side_exits(500, 500, 0, 0, 0));
        assert!(!side_exits(500, 500, -3, 0, 0));
        // A side that never ran: any saving wins, none does not.
        assert!(side_exits(1_000, 0, 1, 1_000_000, 0));
        assert!(!side_exits(1_000, 0, 0, 0, 0));
        // Counts that overflow 64 bits when multiplied stay exact: the
        // saving is u64::MAX / 2.
        let half = u64::MAX / 2;
        assert!(side_exits(half, half, 5, 4, half - 1));
        assert!(!side_exits(half, half, 5, 4, half));
    }

    fn site(hits: u64, uses: u64) -> Site {
        Site {
            pred: 0x40_1000,
            hits,
            uses,
        }
    }

    /// An indirect `jmp`/`call` devirtualizes from `DEVIRT_THRESHOLD`
    /// inline-cache hits on, on a trained site whose hits are at least
    /// half its uses (`is_monomorphic`); a devirtualized call pushes its
    /// return address.
    #[test]
    fn the_devirtualization_gate_needs_threshold_hits_on_a_monomorphic_site() {
        let jmp = I32::JmpInd { src: Rm::Reg(EAX) };
        let (t, slot) = (DEVIRT_THRESHOLD, 0x77_0000);
        let gate = |inst: &I32, site: &Site, stack: &mut Vec<u32>| {
            devirtualize(inst, 0x40_0010, site, slot, stack)
        };
        let mut stack = Vec::new();
        assert_eq!(
            gate(&jmp, &site(t, 2 * t), &mut stack),
            Some((0x40_1000, slot))
        );
        assert_eq!(
            gate(&jmp, &site(t - 1, t), &mut stack),
            None,
            "below the threshold"
        );
        assert_eq!(
            gate(&jmp, &site(t, 2 * t + 1), &mut stack),
            None,
            "polymorphic"
        );
        let untrained = Site::untrained(t, t);
        assert_eq!(gate(&jmp, &untrained, &mut stack), None, "untrained");
        assert!(stack.is_empty(), "an indirect jmp pushes nothing");
        let call = I32::CallInd { src: Rm::Reg(EAX) };
        assert_eq!(
            gate(&call, &site(t, t), &mut stack),
            Some((0x40_1000, slot))
        );
        assert_eq!(stack, [0x40_0010]);
    }

    /// An indirect `jmp`/`call` the trace ends through dispatches plain
    /// from `MEGAMORPHIC_DEMOTE_USES` uses on a polymorphic site, or when
    /// its block was demoted; a `ret` only when demoted.
    #[test]
    fn an_indirect_end_is_plain_on_a_megamorphic_or_demoted_site() {
        let (jmp, ret) = (I32::JmpInd { src: Rm::Reg(EAX) }, I32::Ret { pop: 0 });
        let m = MEGAMORPHIC_DEMOTE_USES;
        assert!(plain(&jmp, false, &site(0, m)));
        assert!(!plain(&jmp, false, &site(0, m - 1)), "too few uses");
        assert!(!plain(&jmp, false, &site(m / 2, m)), "monomorphic at 50 %");
        assert!(plain(&jmp, true, &site(m, m)), "demoted");
        assert!(!plain(&ret, false, &site(0, m)));
        assert!(plain(&ret, true, &site(0, m)), "demoted");
    }

    /// A `ret` continues through the trace exactly when a call on the
    /// trace pushed its return address; a direct call needs no guard
    /// slot, and an unmatched `ret` ends the trace.
    #[test]
    fn a_ret_follows_the_call_the_selection_stack_matches() {
        let untrained = Site::untrained(0, 0);
        let mut stack = Vec::new();
        let ret = I32::Ret { pop: 0 };
        assert_eq!(
            devirtualize(&ret, 0x40_0020, &untrained, 9, &mut stack),
            None
        );
        let call = I32::Call { target: 0x40_2000 };
        let into = devirtualize(&call, 0x40_0010, &untrained, 9, &mut stack);
        assert_eq!(into, Some((0x40_2000, 0)));
        let back = devirtualize(&ret, 0x40_2008, &untrained, 9, &mut stack);
        assert_eq!(back, Some((0x40_0010, 0)));
        assert!(stack.is_empty());
    }

    /// A trace that loops back to its head is emitted twice while both
    /// copies fit the budget plus 4; one that does not loop, once.
    #[test]
    fn a_looping_trace_unrolls_while_two_copies_fit() {
        let budget = MAX_TRACE_INSTS;
        let fits = (budget + 4) / 2;
        assert_eq!(unroll(true, fits, budget), 2);
        assert_eq!(unroll(true, fits + 1, budget), 1);
        assert_eq!(unroll(false, 2, budget), 1);
    }

    /// `select` on a loop whose head ends in a 50/50 branch over a
    /// one-instruction body and whose bottom branches back nearly
    /// always: a hammock, then a side exit on the rare fall-through, then
    /// the trace end, which loops to the head and unrolls.
    /// A side exit's target is charged a trace of its own unless it is
    /// the trace's own head or heat never promotes: here nothing has
    /// heated, so the hammock's join and a block not yet translated
    /// would each head one.
    #[test]
    fn a_side_exit_target_heads_a_trace_unless_it_is_the_head() {
        let mut a = Asm::new(0x40_0000);
        a.mov_ri(ECX, 100);
        let (top, skip) = (a.label(), a.label());
        a.bind(top);
        a.mov_rr(EAX, ECX);
        a.alu_ri(AluOp::And, EAX, 1);
        a.jcc(Cond::E, skip);
        a.alu_ri(AluOp::Add, EDI, 3);
        a.bind(skip);
        a.dec(ECX);
        a.jcc(Cond::Ne, top);
        a.hlt();
        let (top, skip) = (a.label_addr(top), a.label_addr(skip));
        let image = Image::from_asm(&a);
        let mut mem = ia32::mem::GuestMem::new();
        let cpu = image.load(&mut mem);
        let cfg = Config {
            heat_threshold: 1 << 20,
            ..Config::default()
        };
        let mut engine = Engine::new(mem, cfg);
        let outcome = engine.run(&mut NullOs, cpu, u64::MAX / 2);
        assert!(matches!(outcome, Outcome::Halted(_)), "{outcome:?}");
        let head = engine.live_block(top).expect("the loop head ran cold").id;
        assert!(engine
            .live_block(skip)
            .is_some_and(|b| b.registrations == 0));
        assert!(heads_a_trace(&engine, head, skip));
        assert!(
            heads_a_trace(&engine, head, 0x40_1000),
            "not translated yet"
        );
        assert!(!heads_a_trace(&engine, head, top), "the trace's own head");
        engine.cfg.heat_threshold = 0;
        assert!(!heads_a_trace(&engine, head, skip), "heat never promotes");
    }

    #[test]
    fn select_builds_a_hammock_and_a_looping_end_unrolled() {
        let mut a = Asm::new(0x40_0000);
        a.mov_ri(ECX, 100);
        a.mov_ri(EDI, 0);
        let (top, skip, out) = (a.label(), a.label(), a.label());
        a.bind(top);
        a.mov_rr(EAX, ECX);
        a.alu_ri(AluOp::And, EAX, 1);
        a.alu_ri(AluOp::Cmp, EAX, 0);
        a.jcc(Cond::E, skip);
        a.alu_ri(AluOp::Add, EDI, 3);
        a.bind(skip);
        a.dec(ECX);
        a.jcc(Cond::Ne, top);
        a.bind(out);
        a.hlt();
        let (top, skip, out) = (a.label_addr(top), a.label_addr(skip), a.label_addr(out));
        let image = Image::from_asm(&a);
        let mut mem = ia32::mem::GuestMem::new();
        let cpu = image.load(&mut mem);
        // Cold only in effect: the loop never reaches the threshold, but
        // its counters run.
        let cfg = Config {
            heat_threshold: 1 << 20,
            ..Config::default()
        };
        let mut engine = Engine::new(mem, cfg);
        let outcome = engine.run(&mut NullOs, cpu, u64::MAX / 2);
        assert!(matches!(outcome, Outcome::Halted(_)), "{outcome:?}");
        let head = engine.live_block(top).expect("the loop head ran cold").id;
        let trace = select(&engine, head).expect("the loop selects");
        let [Block {
            insts: head_run,
            end:
                End::Hammock {
                    jcc,
                    cond,
                    body,
                    edges: hammock_edges,
                },
        }, Block {
            insts: bottom_run,
            end:
                End::SideExit {
                    cond: exit_cond,
                    to,
                    edges,
                    ..
                },
        }, Block {
            insts: tail,
            end: End::Exit,
        }] = &trace.blocks[..]
        else {
            panic!("{:#?}", trace.blocks);
        };
        assert_eq!(head_run.len(), 3);
        assert_eq!(*cond, Cond::E);
        let [(at, _)] = body[..] else {
            panic!("{body:?}");
        };
        assert_eq!(
            (at.ip, at.ip + at.len as u32),
            (jcc.ip + jcc.len as u32, skip)
        );
        assert_eq!(biased(hammock_edges.0, hammock_edges.1), None);
        assert_eq!(bottom_run.len(), 1);
        assert_eq!((*exit_cond, *to), (Cond::E, out));
        assert!(biased(edges.0, edges.1) == Some(true), "{edges:?}");
        assert!(tail.is_empty());
        assert_eq!((trace.main_exit, trace.unroll), (top, 2));
        assert_eq!(trace.steps(), 2 * 7);
    }

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

    /// A hammock body's flag liveness comes from the region of its
    /// `Jcc`'s block, the loop head here, which the back edge reaches:
    /// the head rewrites CF and the exit path kills it before the halt
    /// (which reads every flag), so the `adc` in the body writes no flag
    /// under the guard. A region discovered from the body start follows
    /// the exit path first, spends its 20-block window on the `jmp`
    /// chain there, never reaches the head, and keeps CF live.
    #[test]
    fn a_hammock_body_writes_no_flag_its_loop_kills() {
        let mut a = Asm::new(0x40_0000);
        a.mov_ri(ESI, 0x50_0000);
        a.mov_ri(ECX, 300);
        a.mov_ri(EDI, 0x7FFF_FFF0);
        let (top, skip) = (a.label(), a.label());
        a.bind(top);
        a.mov_rr(EAX, ECX);
        a.alu_ri(AluOp::And, EAX, 1);
        a.mov_ri(EDX, 0x3000_0001);
        a.alu_ri(AluOp::Cmp, EAX, 0);
        a.jcc(Cond::E, skip);
        a.alu_rr(AluOp::Adc, EDI, EDX);
        a.mov_store(Addr::base_disp(ESI, 0), EDI);
        a.bind(skip);
        a.dec(ECX);
        a.jcc(Cond::Ne, top);
        a.alu_rr(AluOp::Xor, EAX, EAX);
        for _ in 0..crate::cold::discover::MAX_BLOCKS {
            let next = a.label();
            a.jmp(next);
            a.bind(next);
        }
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
        assert!(matches!(outcome, Outcome::Halted(_)), "{outcome:?}");
        let code: Vec<ipf::Inst> = traces.iter().flatten().map(|x| x.inst).collect();
        assert!(
            code.iter()
                .any(|i| matches!(i.op, Op::St { .. }) && i.qp != P0),
            "the hammock is not if-converted"
        );
        for inst in code.iter().filter(|i| i.qp != P0) {
            let writes_home = inst.op.defs().into_iter().any(|d| match d {
                Reg::G(g) => Eflags::is_home(g),
                _ => false,
            });
            assert!(
                !writes_home,
                "`{inst}` writes the EFLAGS home under a predicate"
            );
        }
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
