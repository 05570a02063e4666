//! The hot-code scheduler (paper §2: "builds a data-dependency graph
//! ... the scheduler reorders the instructions in the hot block. ILs
//! are ordered and bundled according to architectural and
//! microarchitectural limitations"): list scheduling over the still
//! virtual IR, then, over the allocated code, stop-bit insertion and
//! the ordering of each issue group for the bundle templates.
//!
//! Commit-point discipline (§4): faulty micro-ops and branches act as
//! barriers for architectural-state writes — state defined before a
//! barrier stays before it, state defined after stays after — so the
//! recovery maps stay valid under arbitrary reordering of the pure
//! computation in between.

use super::ir::is_state_phys;
use ipf::asm::{BundleCursor, StopRule};
use ipf::inst::{LatClass, Op, Reg, Target, Unit};
use ipf::regs::P0;
use std::collections::HashMap;

fn reg_slot(r: Reg) -> (u8, u16) {
    match r {
        Reg::G(g) => (0, g.0),
        Reg::F(f) => (1, f.0),
        Reg::P(p) => (2, p.0),
        Reg::B(b) => (3, b.0 as u16),
    }
}

/// One slot of scheduled code: the instruction, its stop bit, and the
/// index of the IR op it came from (`None` for spill traffic).
pub(super) type Slot = (ipf::Inst, bool, Option<usize>);

/// Pre-allocation scheduling: builds the dependence graph over the
/// still-virtual code and returns a permutation of op indices
/// respecting it, prioritized by critical-path height. Reordering
/// happens here, where renaming has not yet introduced false WAR/WAW
/// dependences between unrelated computations that happen to share a
/// pool register — the allocator then assigns registers in this order,
/// and [`schedule_allocated`] only has spill traffic left to place.
/// Before allocation every non-virtual register def is architectural
/// state, which the commit-barrier discipline pins.
///
/// A consumer of an FP, FP-load or cross-file result waits out that
/// latency before it may be picked, so independent work fills the
/// cycles in between; every other edge costs one cycle. (Waiting out
/// the two-cycle integer load too lets the stop rule merge the filler
/// back into the groups it was pulled from.)
pub(super) fn schedule_ir(insts: &[ipf::Inst]) -> Vec<usize> {
    let timing = ipf::Timing::default();
    let n = insts.len();
    // Per op, its successors and the cycles each waits after it issues.
    let mut succs: Vec<Vec<(usize, u32)>> = vec![Vec::new(); n];
    let mut npreds: Vec<u32> = vec![0; n];
    let edge_after = |from: usize,
                      to: usize,
                      delay: u32,
                      succs: &mut Vec<Vec<(usize, u32)>>,
                      npreds: &mut Vec<u32>| {
        if from == to {
            return;
        }
        match succs[from].iter_mut().find(|(s, _)| *s == to) {
            Some(e) => e.1 = e.1.max(delay),
            None => {
                succs[from].push((to, delay));
                npreds[to] += 1;
            }
        }
    };
    let edge = |from: usize,
                to: usize,
                succs: &mut Vec<Vec<(usize, u32)>>,
                npreds: &mut Vec<u32>| { edge_after(from, to, 1, succs, npreds) };
    // What a reader of `insts[d]`'s result waits after it issues.
    let raw_delay = |d: usize| match insts[d].op.lat_class() {
        class @ (LatClass::Fp | LatClass::Ldf | LatClass::Xfer) => timing.latency(class),
        _ => 1,
    };

    let mut last_def: HashMap<(u8, u16), usize> = HashMap::new();
    let mut uses_since_def: HashMap<(u8, u16), Vec<usize>> = HashMap::new();
    let mut last_store: Option<usize> = None;
    let mut loads_since_store: Vec<usize> = Vec::new();
    let mut last_barrier: Option<usize> = None;
    let mut state_writes_since: Vec<usize> = Vec::new();

    for (i, inst) in insts.iter().enumerate() {
        let op = &inst.op;
        // Register dependences (including the qualifying predicate).
        let mut reads: Vec<Reg> = op.uses();
        if inst.qp != P0 {
            reads.push(Reg::P(inst.qp));
        }
        for r in &reads {
            let k = reg_slot(*r);
            if let Some(&d) = last_def.get(&k) {
                edge_after(d, i, raw_delay(d), &mut succs, &mut npreds);
            }
            uses_since_def.entry(k).or_default().push(i);
        }
        // Predicated ops merge into their destination: treat their defs
        // as read-modify-write so the prior value orders first.
        if inst.qp != P0 {
            for r in op.defs() {
                let k = reg_slot(r);
                if let Some(&d) = last_def.get(&k) {
                    edge(d, i, &mut succs, &mut npreds);
                }
            }
        }
        for r in op.defs() {
            let k = reg_slot(r);
            if let Some(&d) = last_def.get(&k) {
                edge(d, i, &mut succs, &mut npreds); // WAW
            }
            if let Some(us) = uses_since_def.get(&k) {
                for &u in us {
                    edge(u, i, &mut succs, &mut npreds); // WAR
                }
            }
            last_def.insert(k, i);
            uses_since_def.insert(k, Vec::new());
        }
        // Memory ordering (no alias analysis: stores are ordered, loads
        // ordered against stores both ways).
        if op.is_mem() {
            if op.is_store() {
                if let Some(s) = last_store {
                    edge(s, i, &mut succs, &mut npreds);
                }
                for &l in &loads_since_store {
                    edge(l, i, &mut succs, &mut npreds);
                }
                loads_since_store.clear();
                last_store = Some(i);
            } else {
                if let Some(s) = last_store {
                    edge(s, i, &mut succs, &mut npreds);
                }
                loads_since_store.push(i);
            }
        }
        // Commit barriers: faulty ops and branches pin architectural
        // state around them.
        let is_barrier = op.can_fault() || op.is_branch();
        if is_barrier {
            for &w in &state_writes_since {
                edge(w, i, &mut succs, &mut npreds);
            }
            if let Some(b) = last_barrier {
                edge(b, i, &mut succs, &mut npreds);
            }
            last_barrier = Some(i);
            state_writes_since.clear();
        }
        let writes_state = op.defs().iter().any(|r| super::ir::is_state_prealloc(*r));
        if writes_state {
            if let Some(b) = last_barrier {
                edge(b, i, &mut succs, &mut npreds);
            }
            state_writes_since.push(i);
        }
    }
    // Everything sinks before the final instruction if it is a branch.
    if n > 0 && insts[n - 1].op.is_branch() {
        for i in 0..n - 1 {
            if succs[i].is_empty() {
                edge(i, n - 1, &mut succs, &mut npreds);
            }
        }
    }

    // Heights (critical path weights, paper: "computes weights ... to
    // signify the relative importance of scheduling them early").
    let mut height = vec![0u32; n];
    for i in (0..n).rev() {
        let lat = timing.latency(insts[i].op.lat_class());
        for &(s, _) in &succs[i] {
            height[i] = height[i].max(height[s] + lat);
        }
    }

    // Cycle-driven list scheduling with rough port limits.
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut preds_left = npreds;
    let mut earliest = vec![0u64; n];
    let mut ready: Vec<usize> = (0..n).filter(|&i| preds_left[i] == 0).collect();
    let mut cycle: u64 = 0;
    while order.len() < n {
        // Pick ops for this cycle.
        let (mut m, mut iu, mut f, mut b, mut total) = (0u32, 0u32, 0u32, 0u32, 0u32);
        loop {
            // Highest-height eligible op whose earliest cycle has come.
            let mut best: Option<(usize, usize)> = None; // (ready idx, il idx)
            for (ri, &i) in ready.iter().enumerate() {
                if earliest[i] > cycle {
                    continue;
                }
                let unit = insts[i].op.unit();
                let fits = match unit {
                    Unit::M => m < 2,
                    Unit::I => iu < 2,
                    Unit::A => m < 2 || iu < 2,
                    Unit::F => f < 2,
                    Unit::B => b < 3,
                    Unit::L => iu < 2 && total < 5,
                };
                if !fits || total >= 6 {
                    continue;
                }
                // A branch competes by height like any other op; once
                // picked it ends the cycle, below.
                if best.is_none_or(|(_, b)| height[i] > height[b]) {
                    best = Some((ri, i));
                }
            }
            let Some((ri, i)) = best else { break };
            ready.swap_remove(ri);
            order.push(i);
            match insts[i].op.unit() {
                Unit::M => m += 1,
                Unit::I | Unit::L => iu += 1,
                Unit::A => {
                    if m <= iu {
                        m += 1;
                    } else {
                        iu += 1;
                    }
                }
                Unit::F => f += 1,
                Unit::B => b += 1,
            }
            total += 1;
            for &(s, delay) in &succs[i] {
                preds_left[s] -= 1;
                earliest[s] = earliest[s].max(cycle + delay as u64);
                if preds_left[s] == 0 {
                    ready.push(s);
                }
            }
            // A scheduled branch ends the cycle (taken branches skip the
            // rest of the group), so within a cycle it comes last.
            if insts[i].op.is_branch() {
                break;
            }
        }
        cycle += 1;
    }
    order
}

/// Backend pass over fully allocated IR (physical registers, spill
/// traffic included): inserts the stop bits, then orders each issue
/// group for the bundle templates ([`order_groups`]). Which op goes in
/// which group is kept exactly as the allocator's order implies —
/// reordering across groups already happened in [`schedule_ir`], before
/// renaming; re-running list scheduling here would only see the false
/// WAR/WAW dependences that register reuse introduces and could unwind
/// the good schedule.
///
/// The ordering is a heuristic; when it would cost the trace a cycle or
/// a `nop` ([`cost`]), the allocator's order stays.
pub(super) fn schedule_allocated(alloc: &[super::regalloc::AllocInst]) -> Vec<Slot> {
    let stopped = insert_stops(alloc);
    let mut ordered = stopped.clone();
    order_groups(&mut ordered);
    let ((was, was_nops), (is, is_nops)) = (cost(&stopped), cost(&ordered));
    if is <= was && is_nops <= was_nops {
        ordered
    } else {
        stopped
    }
}

/// `code` bundled as installation bundles it. Exit labels are bound
/// past the body; where a branch goes does not change what its slot
/// costs.
fn bundled(code: &[Slot]) -> Vec<ipf::Bundle> {
    let mut cb = ipf::asm::CodeBuilder::new();
    for &(mut inst, stop, _) in code {
        if let Some(Target::Label(_)) = inst.op.target() {
            inst.op.set_target(Target::Abs(0));
        }
        cb.push_inst(inst);
        if stop {
            cb.stop();
        }
    }
    cb.assemble(0).0
}

/// What `code` costs: the cycles it spends under the machine's own
/// group-issue model ([`ipf::IssueModel`], default timing, every
/// operand ready at cycle 0) run straight through — what an
/// [`ipf::Machine`] would spend on the same code — and the `nop` slots
/// the packer pads it with. The stream is bundled first, as
/// installation will bundle it, because the padding counts: a `nop`
/// occupies a port like any other slot, and every `movl` brings two.
fn cost(code: &[Slot]) -> (u64, usize) {
    let bundles = bundled(code);
    let mut model = ipf::IssueModel::new(&ipf::Timing::default());
    let mut nops = 0;
    for bundle in &bundles {
        for (inst, stop) in bundle.slots.iter().zip(bundle.stops) {
            nops += usize::from(matches!(inst.op, Op::Nop { .. }));
            model.account(&inst.slot_meta(), 0);
            if stop {
                model.close(0);
            }
        }
    }
    model.close(0);
    (model.now(), nops)
}

/// The allocator's order, cut into issue groups by the backend's
/// [`StopRule`], with the last group closed.
fn insert_stops(alloc: &[super::regalloc::AllocInst]) -> Vec<Slot> {
    let mut out: Vec<Slot> = Vec::with_capacity(alloc.len());
    let mut stops = StopRule::new();
    for a in alloc {
        let (stop_before, stop_after) = stops.place(&a.inst);
        if stop_before {
            if let Some(prev) = out.last_mut() {
                prev.1 = true;
            }
        }
        out.push((a.inst, stop_after, a.src));
    }
    if let Some(last) = out.last_mut() {
        last.1 = true;
    }
    out
}

/// Orders every issue group of `code` so that the packer, which fills
/// bundles in program order and pads what no template takes with
/// `nop`s, needs as few of them as the group's dependences allow. A
/// `nop` occupies an issue port like any other slot. The body of a trace
/// starts a fresh bundle (it follows a label), and the packer's open
/// bundle carries from one group into the next, so the ordering does
/// too.
fn order_groups(code: &mut [Slot]) {
    let mut cursor = BundleCursor::new();
    for group in code.split_inclusive_mut(|slot| slot.1) {
        order_group(group, &mut cursor);
    }
}

/// Orders one stop-delimited issue group for the templates; `cursor` is
/// the bundle the packer has open when the group starts, and is left as
/// the packer leaves it after the group. At each position it takes the
/// first op allowed there that fits the next slot of a template still
/// possible for the open bundle — an exact-unit op before an A-type one.
/// When none fits, the bundle is closed and the next one starts with an
/// M-type op if one is allowed, else an A-, L-, or B-type op, else
/// whatever is. An op may move ahead of the ops before it except where
/// [`keeps_order`] says the two must stay as they are.
fn order_group(group: &mut [Slot], cursor: &mut BundleCursor) {
    let n = group.len();
    // Per op, how many ops that must stay before it are not placed yet,
    // and which ops must stay after it.
    let mut waits = vec![0u32; n];
    let mut later: Vec<Vec<usize>> = vec![Vec::new(); n];
    for b in 0..n {
        for a in 0..b {
            if keeps_order(&group[a].0, &group[b].0) {
                waits[b] += 1;
                later[a].push(b);
            }
        }
    }
    let unit = |j: usize| group[j].0.op.unit();
    let mut placed = vec![false; n];
    let mut order: Vec<usize> = Vec::with_capacity(n);
    while order.len() < n {
        let allowed: Vec<usize> = (0..n).filter(|&j| !placed[j] && waits[j] == 0).collect();
        let first = |want: &dyn Fn(Unit) -> bool| allowed.iter().copied().find(|&j| want(unit(j)));
        let fitting = if cursor.is_empty() {
            None
        } else {
            first(&|u| u != Unit::A && cursor.fits(u))
                .or_else(|| first(&|u| u == Unit::A && cursor.fits(u)))
        };
        let j = match fitting {
            Some(j) => j,
            None => {
                cursor.close();
                [Unit::M, Unit::A, Unit::L, Unit::B]
                    .into_iter()
                    .find_map(|lead| first(&|u| u == lead))
                    .or_else(|| first(&|_| true))
                    .expect("an op whose predecessors are all placed is allowed")
            }
        };
        cursor.push(unit(j));
        if cursor.is_full() {
            cursor.close();
        }
        placed[j] = true;
        order.push(j);
        for &b in &later[j] {
            waits[b] -= 1;
        }
    }
    let ordered: Vec<Slot> = order
        .iter()
        .map(|&j| (group[j].0, false, group[j].2))
        .collect();
    group.copy_from_slice(&ordered);
    group[n - 1].1 = true;
}

/// Whether `later` must stay after `earlier`, the two in one issue
/// group with `earlier` first: `later` writes a register `earlier` reads
/// (the machine runs a group's slots in order); both are ordered among
/// themselves — memory accesses, ops that can fault, branches and
/// writes of architectural state, which keeps every commit point's state
/// where recovery expects it; or `later` is a branch, which ends the
/// group.
fn keeps_order(earlier: &ipf::Inst, later: &ipf::Inst) -> bool {
    if later.op.is_branch() || (is_ordered(earlier) && is_ordered(later)) {
        return true;
    }
    let mut reads = vec![reg_slot(Reg::P(earlier.qp))];
    earlier.op.visit_regs(|r, is_def| {
        if !is_def {
            reads.push(reg_slot(r));
        }
    });
    let mut overwrites = false;
    later
        .op
        .visit_regs(|r, is_def| overwrites |= is_def && reads.contains(&reg_slot(r)));
    overwrites
}

/// Whether `inst` keeps its order against every other such op.
fn is_ordered(inst: &ipf::Inst) -> bool {
    let op = &inst.op;
    let mut writes_state = false;
    op.visit_regs(|r, is_def| writes_state |= is_def && is_state_phys(r));
    op.is_mem() || op.can_fault() || op.is_branch() || writes_state
}

#[cfg(test)]
mod tests {
    use super::super::eval;
    use super::super::regalloc::AllocInst;
    use super::super::trace::ALLOCATED;
    use super::*;
    use crate::engine::tests::NullOs;
    use crate::engine::{Config, Engine, Outcome};
    use crate::templates::Sink;
    use ipf::inst::{FmaKind, ShiftKind, Src};
    use ipf::regs::{Fr, Gr, Pr, R0};
    use std::sync::OnceLock;

    /// The cycles [`cost`] charges `code`.
    fn static_cost(code: &[Slot]) -> u64 {
        cost(code).0
    }

    /// The `nop` slots the packer pads `code` with.
    fn nops(code: &[Slot]) -> usize {
        cost(code).1
    }

    /// The allocated code of every trace the hot compiler builds on the
    /// 20 kernels — SPEC-INT-like, call-heavy and FP/SIMD — each run to
    /// completion once under the default configuration.
    fn kernel_traces() -> &'static [Vec<AllocInst>] {
        static TRACES: OnceLock<Vec<Vec<AllocInst>>> = OnceLock::new();
        TRACES.get_or_init(|| {
            let mut kernels = workloads::spec_int();
            kernels.extend(workloads::indirect_kernels());
            kernels.extend(workloads::spec_fp());
            assert_eq!(kernels.len(), 20);
            ALLOCATED.set(Some(Vec::new()));
            for w in &kernels {
                let image = workloads::harness::build_image(w, (w.scale / 8).max(2048));
                let mut mem = ia32::mem::GuestMem::new();
                let cpu = image.load(&mut mem);
                let mut engine = Engine::new(mem, Config::default());
                let outcome = engine.run(&mut NullOs, cpu, u64::MAX / 2);
                assert!(
                    matches!(outcome, Outcome::Halted(_)),
                    "{}: {outcome:?}",
                    w.name
                );
            }
            ALLOCATED.take().expect("armed above")
        })
    }

    /// Ordering a trace's groups for the templates never makes it cost
    /// more on the machine's issue model, nor makes the packer pad it
    /// with more `nop`s — and on the kernels' traces it almost always
    /// makes both smaller.
    #[test]
    fn ordering_the_groups_never_costs_a_trace_cycles_or_nops() {
        let traces = kernel_traces();
        let (mut cheaper, mut fewer_nops) = (0, 0);
        for alloc in traces {
            let (unordered, ordered) = (insert_stops(alloc), schedule_allocated(alloc));
            let (was, is) = (static_cost(&unordered), static_cost(&ordered));
            assert!(is <= was, "ordering cost {was} -> {is} cycles");
            let (was_nops, is_nops) = (nops(&unordered), nops(&ordered));
            assert!(
                is_nops <= was_nops,
                "ordering made {was_nops} -> {is_nops} nops"
            );
            cheaper += usize::from(is < was);
            fewer_nops += usize::from(is_nops < was_nops);
        }
        assert!(traces.len() >= 50, "only {} traces compiled", traces.len());
        assert!(
            cheaper * 10 >= traces.len() * 9 && fewer_nops * 10 >= traces.len() * 9,
            "of {} traces, {cheaper} got cheaper and {fewer_nops} lost nops",
            traces.len()
        );
    }

    /// Every kernel trace computes the same before and after its groups
    /// are ordered: same stores, same registers at every exit and at the
    /// end, same architectural state at every fault, on the reference
    /// evaluator from two seeded register files.
    #[test]
    fn ordering_the_groups_keeps_what_every_trace_computes() {
        for alloc in kernel_traces() {
            // Tag every slot with its position, so the ordered code
            // says where each op came from.
            let tagged: Vec<Slot> = insert_stops(alloc)
                .into_iter()
                .enumerate()
                .map(|(k, (inst, stop, _))| (inst, stop, Some(k)))
                .collect();
            let mut ordered = tagged.clone();
            order_groups(&mut ordered);
            let perm: Vec<usize> = ordered.iter().map(|s| s.2.expect("tagged")).collect();
            let insts = |code: &[Slot]| code.iter().map(|s| s.0).collect::<Vec<_>>();
            eval::assert_preserves("group ordering", &insts(&tagged), &insts(&ordered), &perm);
        }
    }

    /// One group, ordered with the packer's open bundle holding `open`.
    fn order_after(open: &[Unit], group: &[ipf::Inst]) -> Vec<ipf::Inst> {
        let mut cursor = BundleCursor::new();
        for &u in open {
            cursor.push(u);
        }
        let mut code: Vec<Slot> = group.iter().map(|&i| (i, false, None)).collect();
        code.last_mut().expect("a group").1 = true;
        order_group(&mut code, &mut cursor);
        code.iter().map(|s| s.0).collect()
    }

    #[test]
    fn ordering_keeps_a_war_pair_a_memory_pair_a_commit_point_and_the_branch() {
        let ld = |d: u16, addr: u16| {
            ipf::Inst::new(Op::Ld {
                sz: 4,
                d: Gr(d),
                addr: Gr(addr),
                spec: false,
            })
        };
        let set = |d: Gr| {
            ipf::Inst::new(Op::Add {
                d,
                a: Src::Imm(1),
                b: R0,
            })
        };
        // Each pair: an open [M, M] bundle takes only an I-type slot
        // next, so the A-type second op would go first if it could.
        let mm = [Unit::M, Unit::M];
        // It overwrites a pool register the load reads.
        let war = [ld(70, 71), set(Gr(71))];
        assert_eq!(order_after(&mm, &war), war);
        // It writes a guest register after an op that can fault.
        let commit = [ld(70, 72), set(crate::state::guest_gpr(0))];
        assert_eq!(order_after(&mm, &commit), commit);
        // A pure op with neither conflict does go first.
        let free = [ld(70, 72), set(Gr(73))];
        assert_eq!(order_after(&mm, &free), [free[1], free[0]]);
        // An open [M] bundle takes a B-type op next: the branch still
        // ends the group.
        let exit = ipf::Inst::new(Op::Br {
            target: Target::Abs(0x8000),
        });
        let branch = [set(Gr(73)), exit];
        assert_eq!(order_after(&[Unit::M], &branch), branch);
        // Memory accesses keep their order among themselves.
        let store = ipf::Inst::new(Op::St {
            sz: 4,
            addr: Gr(72),
            val: Gr(73),
        });
        for (a, b) in [(store, ld(70, 71)), (ld(70, 71), store), (store, store)] {
            assert!(keeps_order(&a, &b), "{a} ; {b}");
        }
        assert!(keeps_order(&war[0], &war[1]) && keeps_order(&commit[0], &commit[1]));
        assert!(keeps_order(&branch[0], &branch[1]) && !keeps_order(&free[0], &free[1]));
    }

    #[test]
    fn schedule_respects_raw() {
        let mut s = Sink::new();
        let v1 = s.vg();
        let g = crate::state::guest_gpr(0);
        let ils = vec![
            ipf::Inst::new(Op::Add {
                d: v1,
                a: Src::Imm(1),
                b: R0,
            }),
            ipf::Inst::new(Op::Add {
                d: g,
                a: Src::Imm(0),
                b: v1,
            }),
        ];
        let order = schedule_ir(&ils);
        let p0 = order.iter().position(|&i| i == 0).unwrap();
        let p1 = order.iter().position(|&i| i == 1).unwrap();
        assert!(p0 < p1);
    }

    #[test]
    fn schedule_interleaves_independent_chains() {
        // Two independent load-use chains should interleave rather than
        // run back-to-back.
        let mut s = Sink::new();
        let (a1, a2) = (s.vg(), s.vg());
        let (v1, v2) = (s.vg(), s.vg());
        let (g0, g1) = (crate::state::guest_gpr(0), crate::state::guest_gpr(1));
        let ils = vec![
            ipf::Inst::new(Op::Add {
                d: a1,
                a: Src::Imm(16),
                b: g0,
            }),
            ipf::Inst::new(Op::Ld {
                sz: 4,
                d: v1,
                addr: a1,
                spec: false,
            }),
            ipf::Inst::new(Op::Add {
                d: g0,
                a: Src::Imm(0),
                b: v1,
            }),
            ipf::Inst::new(Op::Add {
                d: a2,
                a: Src::Imm(32),
                b: g1,
            }),
            ipf::Inst::new(Op::Ld {
                sz: 4,
                d: v2,
                addr: a2,
                spec: false,
            }),
            ipf::Inst::new(Op::Add {
                d: g1,
                a: Src::Imm(0),
                b: v2,
            }),
        ];
        let order = schedule_ir(&ils);
        // The second chain's address computation should be scheduled
        // before the first chain's final use (cycle overlap).
        let pos_a2 = order.iter().position(|&i| i == 3).unwrap();
        let pos_use1 = order.iter().position(|&i| i == 2).unwrap();
        assert!(
            pos_a2 < pos_use1,
            "independent work hoisted into the stall: {order:?}"
        );
    }

    #[test]
    fn stores_stay_ordered() {
        let mut s = Sink::new();
        let _ = s.vg();
        let g = crate::state::guest_gpr(0);
        let h = crate::state::guest_gpr(1);
        let ils = vec![
            ipf::Inst::new(Op::St {
                sz: 4,
                addr: g,
                val: h,
            }),
            ipf::Inst::new(Op::St {
                sz: 4,
                addr: h,
                val: g,
            }),
        ];
        let order = schedule_ir(&ils);
        assert_eq!(order, vec![0, 1]);
    }

    #[test]
    fn state_write_pinned_after_faulty_op() {
        // A guest-register write that follows a store (program order)
        // must not be scheduled before it (commit-point rule).
        let mut s = Sink::new();
        let _ = s.vg();
        let g = crate::state::guest_gpr(0);
        let h = crate::state::guest_gpr(1);
        let ils = vec![
            ipf::Inst::new(Op::St {
                sz: 4,
                addr: g,
                val: h,
            }),
            ipf::Inst::new(Op::Add {
                d: g,
                a: Src::Imm(1),
                b: g,
            }),
        ];
        let order = schedule_ir(&ils);
        assert_eq!(order, vec![0, 1]);
    }

    /// The scheduler prices code with the machine's own issue model,
    /// so its cost of a straight-line sequence is exactly what the
    /// machine spends running the same slots — load-use and FP stalls,
    /// oversubscribed ports, a write to `p0` delaying the next
    /// unpredicated group, the 8-write cap and the bundler's `nop`
    /// padding included.
    #[test]
    fn static_cost_equals_machine_cycles() {
        use ipf::inst::{CmpRel, FXfer};
        use ipf::machine::{CodeArena, Machine, StopReason, VecBus};
        use ipf::regs::{Br, F1};
        let (g, f, p) = (|n: u16| Gr(32 + n), |n: u16| Fr(32 + n), |n: u16| Pr(1 + n));
        let mut code: Vec<(ipf::Inst, bool)> = Vec::new();
        let mut push = |inst: ipf::Inst, stop: bool| code.push((inst, stop));
        // Load-use chain with a dependent compare and predicated ops.
        push(
            ipf::Inst::new(Op::Ld {
                sz: 8,
                d: g(0),
                addr: R0,
                spec: false,
            }),
            true,
        );
        push(
            ipf::Inst::new(Op::Add {
                d: g(1),
                a: Src::Imm(1),
                b: g(0),
            }),
            false,
        );
        push(
            ipf::Inst::new(Op::Cmp {
                rel: CmpRel::Eq,
                pt: p(0),
                pf: P0,
                a: Src::Reg(g(0)),
                b: R0,
            }),
            true,
        );
        push(
            ipf::Inst::pred(
                p(0),
                Op::Add {
                    d: g(2),
                    a: Src::Imm(2),
                    b: g(1),
                },
            ),
            false,
        );
        push(
            ipf::Inst::pred(
                p(1),
                Op::Add {
                    d: g(3),
                    a: Src::Imm(3),
                    b: g(1),
                },
            ),
            true,
        );
        // Cross-file transfers, FP latency, `fcmp` writing `p0`.
        push(
            ipf::Inst::new(Op::Setf {
                kind: FXfer::Sig,
                f: f(0),
                r: g(1),
            }),
            true,
        );
        push(
            ipf::Inst::new(Op::Fma {
                kind: FmaKind::Fma,
                d: f(1),
                a: f(0),
                b: F1,
                c: f(0),
            }),
            true,
        );
        push(
            ipf::Inst::new(Op::Fcmp {
                rel: ipf::inst::FcmpRel::Lt,
                pt: P0,
                pf: p(2),
                a: f(1),
                b: f(0),
            }),
            true,
        );
        push(
            ipf::Inst::new(Op::Getf {
                kind: FXfer::Sig,
                d: g(4),
                f: f(1),
            }),
            true,
        );
        push(ipf::Inst::new(Op::MovToBr { b: Br(1), r: g(4) }), true);
        push(ipf::Inst::new(Op::MovFromBr { d: g(5), b: Br(1) }), true);
        // One wide group: 12 A-type slots oversubscribe M/I and write
        // more registers than a group records; the reader of the last
        // one therefore does not wait for it.
        for n in 0..12 {
            push(
                ipf::Inst::new(Op::Ld {
                    sz: 8,
                    d: g(10 + n),
                    addr: R0,
                    spec: false,
                }),
                n == 11,
            );
        }
        push(
            ipf::Inst::new(Op::Add {
                d: g(6),
                a: Src::Imm(0),
                b: g(21),
            }),
            true,
        );
        push(
            ipf::Inst::new(Op::St {
                sz: 8,
                addr: R0,
                val: g(6),
            }),
            false,
        );
        // Padding: each `movl` takes a bundle of its own, with a `nop`
        // on either side that occupies a port like any other slot, and
        // a shift cannot lead a bundle.
        for n in 0..3 {
            push(
                ipf::Inst::new(Op::Movl {
                    d: g(7 + n),
                    imm: 1 << 40,
                }),
                false,
            );
        }
        push(
            ipf::Inst::new(Op::Shift {
                kind: ShiftKind::Shl,
                d: g(30),
                a: g(6),
                count: Src::Imm(3),
            }),
            true,
        );

        let priced: Vec<_> = code.iter().map(|&(i, s)| (i, s, None)).collect();
        let mut cb = ipf::asm::CodeBuilder::new();
        for &(inst, stop) in &code {
            cb.push_inst(inst);
            if stop {
                cb.stop();
            }
        }
        let (bundles, _) = cb.assemble(0x1_0000);
        assert!(bundles.len() * 3 > code.len() + 6, "the bundler padded");
        let mut arena = CodeArena::new(0x1_0000);
        arena.append(bundles, 0);
        let end = arena.end();
        let mut m = Machine::new(arena, ipf::Timing::default());
        m.set_ip(0x1_0000, 0);
        let stop = m.run(&mut VecBus::new(64), u64::MAX);
        assert_eq!(
            stop,
            StopReason::ExternalBranch {
                target: end,
                from: end
            }
        );
        assert_eq!(static_cost(&priced), m.cycles);
        assert!(m.cycles > code.len() as u64 / 2, "the sequence stalls");
    }
}
