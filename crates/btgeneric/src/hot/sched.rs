//! The hot-code scheduler (paper §2: "builds a data-dependency graph
//! ... the scheduler reorders the instructions in the hot block. ILs
//! are ordered and bundled according to architectural and
//! microarchitectural limitations"): list scheduling over the still
//! virtual IR, then stop-bit insertion over the allocated code.
//!
//! Commit-point discipline (§4): faulty micro-ops and branches act as
//! barriers for architectural-state writes — state defined before a
//! barrier stays before it, state defined after stays after — so the
//! recovery maps stay valid under arbitrary reordering of the pure
//! computation in between.

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

/// Latency the critical-path heights are weighted with: the machine's
/// default result latencies, except that the fixed two-cycle class
/// (`mov` to/from a branch register, `fcmp`) counts as one — a
/// rounding the schedules in every checked-in figure were chosen under.
fn height_latency(op: &Op) -> u32 {
    match op.lat_class() {
        LatClass::Two => 1,
        class => ipf::Timing::default().latency(class),
    }
}

/// Pre-allocation scheduling: builds the dependence graph over the
/// still-virtual code and returns a permutation of op indices
/// respecting it, prioritized by critical-path height. Reordering
/// happens here, where renaming has not yet introduced false WAR/WAW
/// dependences between unrelated computations that happen to share a
/// pool register — the allocator then assigns registers in this order,
/// and [`schedule_allocated`] only has spill traffic left to place.
/// Before allocation every non-virtual register def is architectural
/// state, which the commit-barrier discipline pins.
pub(super) fn schedule_ir(insts: &[ipf::Inst]) -> Vec<usize> {
    let n = insts.len();
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut npreds: Vec<u32> = vec![0; n];
    let edge = |from: usize, to: usize, succs: &mut Vec<Vec<usize>>, npreds: &mut Vec<u32>| {
        if from != to && !succs[from].contains(&to) {
            succs[from].push(to);
            npreds[to] += 1;
        }
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
                edge(d, i, &mut succs, &mut npreds);
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
        let lat = height_latency(&insts[i].op);
        for &s in &succs[i] {
            height[i] = height[i].max(height[s] + lat);
        }
    }

    // Cycle-driven list scheduling with rough port limits.
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut cycle_of = vec![0u64; n];
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
                // Branches schedule only after all non-branch ready work
                // of this cycle (they end the group).
                if best.is_none() || height[i] > height[best.unwrap().1] {
                    best = Some((ri, i));
                }
            }
            let Some((ri, i)) = best else { break };
            ready.swap_remove(ri);
            order.push(i);
            cycle_of[i] = cycle;
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
            for &s in &succs[i] {
                preds_left[s] -= 1;
                earliest[s] = earliest[s].max(cycle + 1);
                if preds_left[s] == 0 {
                    ready.push(s);
                }
            }
            // A scheduled branch ends the cycle (taken branches skip the
            // rest of the group).
            if insts[i].op.is_branch() {
                break;
            }
        }
        cycle += 1;
    }

    // Within each cycle, branches must come last; the order vector is
    // built per cycle so this already holds except when a branch was
    // picked mid-cycle — we ended the cycle there, so it holds.
    order
}

/// Backend pass: inserts stop bits over
/// fully allocated IR (physical registers, spill traffic included).
/// The instruction order is kept exactly as the allocator produced it
/// — reordering already happened in [`schedule_ir`], before renaming;
/// re-running list scheduling here would only see the false WAR/WAW
/// dependences that register reuse introduces and could unwind the
/// good schedule.
///
/// Returns `(instruction, stop bit, source IR index)` triples; the
/// source index is `None` for spill traffic.
pub(super) fn schedule_allocated(
    alloc: &[super::regalloc::AllocInst],
) -> Vec<(ipf::Inst, bool, Option<usize>)> {
    let mut out: Vec<(ipf::Inst, bool, Option<usize>)> = Vec::with_capacity(alloc.len());
    let mut group_defs: Vec<(u8, u16)> = Vec::new();
    for (i, a) in alloc.iter().enumerate() {
        let inst = a.inst;
        let mut conflict = false;
        let mut regs: Vec<(u8, u16)> = Vec::new();
        inst.op.visit_regs(&mut |r, _| regs.push(reg_slot(r)));
        regs.push(reg_slot(Reg::P(inst.qp)));
        for k in &regs {
            if group_defs.contains(k) {
                conflict = true;
            }
        }
        if conflict {
            if let Some(prev) = out.last_mut() {
                prev.1 = true;
            }
            group_defs.clear();
        }
        inst.op.visit_regs(&mut |r, is_def| {
            if is_def {
                group_defs.push(reg_slot(r));
            }
        });
        let is_branch = inst.op.is_branch();
        out.push((inst, false, alloc[i].src));
        if is_branch {
            out.last_mut().expect("pushed").1 = true;
            group_defs.clear();
        }
    }
    if let Some(last) = out.last_mut() {
        last.1 = true;
    }
    out
}

/// Statically evaluates a stop-bit-delimited instruction stream under
/// the machine's own group-issue model ([`ipf::IssueModel`], default
/// timing, every operand ready at cycle 0): the cycles a [`ipf::Machine`]
/// would spend on the same code run straight through. The stream is
/// bundled first, as installation will bundle it, because the padding
/// counts: a `nop` occupies a port like any other slot, and every
/// `movl` brings two. Used to compare compiled variants of the same
/// trace — the list scheduler's `earliest` is latency-blind, so two
/// correct schedules of equivalent code can differ in real issue stalls
/// that only this walk (or the machine itself) sees.
pub(super) fn static_cost(code: &[(ipf::Inst, bool, Option<usize>)]) -> u64 {
    let mut cb = ipf::asm::CodeBuilder::new();
    for &(mut inst, stop, _) in code {
        // Exit labels are bound past the body; where a branch goes
        // does not change what its slot costs.
        if let Some(Target::Label(_)) = inst.op.target() {
            inst.op.set_target(Target::Abs(0));
        }
        cb.push_inst(inst);
        if stop {
            cb.stop();
        }
    }
    let mut model = ipf::IssueModel::new(&ipf::Timing::default());
    for bundle in cb.assemble(0).0 {
        for (inst, stop) in bundle.slots.iter().zip(bundle.stops) {
            model.account(&inst.slot_meta(), 0);
            if stop {
                model.close(0);
            }
        }
    }
    model.close(0);
    model.now()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::templates::Sink;
    use ipf::regs::{Fr, Gr, Pr, R0};

    #[test]
    fn schedule_respects_raw() {
        let mut s = Sink::new();
        let v1 = s.vg();
        let g = crate::state::guest_gpr(0);
        let ils = vec![
            ipf::Inst::new(Op::AddImm {
                d: v1,
                imm: 1,
                a: R0,
            }),
            ipf::Inst::new(Op::AddImm {
                d: g,
                imm: 0,
                a: v1,
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
            ipf::Inst::new(Op::AddImm {
                d: a1,
                imm: 16,
                a: g0,
            }),
            ipf::Inst::new(Op::Ld {
                sz: 4,
                d: v1,
                addr: a1,
                spec: false,
            }),
            ipf::Inst::new(Op::AddImm {
                d: g0,
                imm: 0,
                a: v1,
            }),
            ipf::Inst::new(Op::AddImm {
                d: a2,
                imm: 32,
                a: g1,
            }),
            ipf::Inst::new(Op::Ld {
                sz: 4,
                d: v2,
                addr: a2,
                spec: false,
            }),
            ipf::Inst::new(Op::AddImm {
                d: g1,
                imm: 0,
                a: v2,
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
            ipf::Inst::new(Op::AddImm { d: g, imm: 1, a: g }),
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
            ipf::Inst::new(Op::AddImm {
                d: g(1),
                imm: 1,
                a: g(0),
            }),
            false,
        );
        push(
            ipf::Inst::new(Op::Cmp {
                rel: CmpRel::Eq,
                pt: p(0),
                pf: P0,
                a: g(0),
                b: R0,
            }),
            true,
        );
        push(
            ipf::Inst::pred(
                p(0),
                Op::AddImm {
                    d: g(2),
                    imm: 2,
                    a: g(1),
                },
            ),
            false,
        );
        push(
            ipf::Inst::pred(
                p(1),
                Op::AddImm {
                    d: g(3),
                    imm: 3,
                    a: g(1),
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
            ipf::Inst::new(Op::AddImm {
                d: g(6),
                imm: 0,
                a: g(21),
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
            ipf::Inst::new(Op::ShlImm {
                d: g(30),
                a: g(6),
                count: 3,
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
