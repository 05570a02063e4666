//! Hot IR optimizations (paper §2 hot-phase list): local value
//! numbering (covering compound-address CSE, register-value tracking,
//! copy propagation, and redundant-load elimination), constant/copy
//! propagation, cross-block EFLAGS elimination, and dead-code
//! elimination.

use super::ir::{is_state_prealloc, Effects, IrInst, MemEffect};
use super::liveness;
use crate::state::GR_EFLAGS;
use ipf::inst::{Op, Reg};
use ipf::regs::{Gr, P0};
use std::collections::HashMap;

/// Local value numbering over the trace. Pure integer ops (and loads,
/// versioned by the store count) with identical canonicalized operands
/// are deduplicated; uses are rewritten through a substitution map (so
/// effects are recomputed afterwards).
pub(super) fn lvn(ils: &mut Vec<IrInst>) {
    // Only virtuals with a single definition participate (deleting one
    // of several defs, or replacing uses with a later-redefined holder,
    // would be wrong).
    let mut def_count: HashMap<u16, u32> = HashMap::new();
    for il in ils.iter() {
        il.inst.op.visit_regs(&mut |r, is_def| {
            if is_def {
                if let Reg::G(g) = r {
                    if g.is_virtual() {
                        *def_count.entry(g.0).or_default() += 1;
                    }
                }
            }
        });
    }
    let mut subst: HashMap<u16, Gr> = HashMap::new(); // virtual -> replacement
                                                      // Copy propagation: virtual v is a copy of physical p taken at
                                                      // version n; uses of v read p directly while p is unmodified.
    let mut copy_of: HashMap<u16, (u16, u64)> = HashMap::new();
    let mut versions: HashMap<(u8, u16), u64> = HashMap::new();
    let mut mem_version: u64 = 0;
    let mut table: HashMap<String, Gr> = HashMap::new();
    let mut keep: Vec<bool> = vec![true; ils.len()];

    for (i, il) in ils.iter_mut().enumerate() {
        // Rewrite uses through the substitution and copy maps.
        il.inst.op.map_regs(&mut |r, is_def| match r {
            Reg::G(g) if !is_def && g.is_virtual() => {
                if let Some(&h) = subst.get(&g.0) {
                    return Reg::G(h);
                }
                if let Some(&(p, ver)) = copy_of.get(&g.0) {
                    if versions.get(&(0, p)).copied().unwrap_or(0) == ver {
                        return Reg::G(Gr(p));
                    }
                }
                Reg::G(g)
            }
            other => other,
        });

        let op = il.inst.op;
        if op.is_store() {
            mem_version += 1;
        }
        if op.is_branch() {
            // Conservatively cut value numbering at control flow.
            table.clear();
            continue;
        }
        // Bump versions of defined non-virtual registers.
        op.visit_regs(&mut |r, is_def| {
            if is_def {
                let key = match r {
                    Reg::G(g) if !g.is_virtual() => Some((0u8, g.0)),
                    Reg::F(f) if !f.is_virtual() => Some((1, f.0)),
                    Reg::P(p) if !p.is_virtual() => Some((2, p.0)),
                    _ => None,
                };
                if let Some(k) = key {
                    *versions.entry(k).or_default() += 1;
                }
            }
        });

        if il.inst.qp != P0 {
            continue; // predicated ops are not LVN candidates
        }
        let (lvn_ok, dest) = lvn_candidate(&op);
        let Some(dest) = dest else { continue };
        if !lvn_ok || !dest.is_virtual() || def_count.get(&dest.0).copied().unwrap_or(0) != 1 {
            continue;
        }
        // Build the canonical key: the op with its destination zeroed
        // and physical operands tagged with their version.
        let mut key_op = op;
        key_op.map_regs(&mut |r, is_def| {
            if is_def {
                return match r {
                    Reg::G(_) => Reg::G(Gr(0)),
                    other => other,
                };
            }
            r
        });
        let mut key = format!("{key_op:?}");
        op.visit_regs(&mut |r, is_def| {
            if !is_def {
                let vkey = match r {
                    Reg::G(g) if !g.is_virtual() => Some((0u8, g.0)),
                    Reg::F(f) if !f.is_virtual() => Some((1, f.0)),
                    Reg::P(p) if !p.is_virtual() => Some((2, p.0)),
                    _ => None,
                };
                if let Some(k) = vkey {
                    key.push_str(&format!(
                        "|v{}:{}",
                        k.1,
                        versions.get(&k).copied().unwrap_or(0)
                    ));
                }
            }
        });
        if matches!(op, Op::Ld { .. }) {
            key.push_str(&format!("|mem{mem_version}"));
        }
        match table.get(&key) {
            Some(&holder) => {
                subst.insert(dest.0, holder);
                keep[i] = false;
            }
            None => {
                table.insert(key, dest);
                // Record pure copies of physical registers for
                // copy propagation (the op stays; DCE removes it once
                // every use has been redirected).
                if let Op::AddImm { d, imm: 0, a } = op {
                    if d.is_virtual() && !a.is_virtual() && a.0 != 0 {
                        let ver = versions.get(&(0, a.0)).copied().unwrap_or(0);
                        copy_of.insert(d.0, (a.0, ver));
                    }
                }
            }
        }
    }
    let mut idx = 0;
    ils.retain(|_| {
        let k = keep[idx];
        idx += 1;
        k
    });
    recompute_effects(ils);
}

/// Re-derives every op's [`Effects`] after a pass rewrote operands.
fn recompute_effects(irs: &mut [IrInst]) {
    for x in irs.iter_mut() {
        x.fx = Effects::of(&x.inst);
    }
}

/// Whether an op is a pure, deduplicable computation; returns its single
/// GR destination.
fn lvn_candidate(op: &Op) -> (bool, Option<Gr>) {
    use Op::*;
    match *op {
        Add { d, .. }
        | Sub { d, .. }
        | AddImm { d, .. }
        | SubImm { d, .. }
        | And { d, .. }
        | Or { d, .. }
        | Xor { d, .. }
        | AndCm { d, .. }
        | AndImm { d, .. }
        | OrImm { d, .. }
        | XorImm { d, .. }
        | Shladd { d, .. }
        | ShlImm { d, .. }
        | ShlVar { d, .. }
        | ShrImm { d, .. }
        | ShrVar { d, .. }
        | Extr { d, .. }
        | Dep { d, .. }
        | DepZ { d, .. }
        | Sxt { d, .. }
        | Zxt { d, .. }
        | Popcnt { d, .. }
        | Movl { d, .. } => (true, Some(d)),
        // Non-speculative loads are value-numbered against the store
        // counter (redundant-load elimination).
        Ld { d, spec: false, .. } => (true, Some(d)),
        _ => (false, None),
    }
}

/// Dead-code elimination: drops ops whose only effects are writes to
/// virtual registers that nothing reads.
pub(super) fn dce(ils: &mut Vec<IrInst>) {
    let n = ils.len();
    let mut keep = vec![false; n];
    let mut live: std::collections::HashSet<(u8, u16)> = std::collections::HashSet::new();
    for i in (0..n).rev() {
        let il = &ils[i];
        let op = &il.inst.op;
        let mut side_effect = op.is_store()
            || op.is_branch()
            || op.can_fault()
            || il.inst.qp != P0
            || matches!(op, Op::Mf | Op::MovToBr { .. });
        // Writes to non-virtual (architectural) registers are effects.
        let mut defines_live_virtual = false;
        op.visit_regs(&mut |r, is_def| {
            if is_def {
                if is_state_prealloc(r) {
                    side_effect = true;
                }
                let key = reg_key(r);
                if let Some(k) = key {
                    if live.contains(&k) {
                        defines_live_virtual = true;
                    }
                }
            }
        });
        if side_effect || defines_live_virtual {
            keep[i] = true;
            // Defs are satisfied; kill them (only unconditional defs
            // fully cover the register), then mark uses live.
            if il.inst.qp == P0 {
                op.visit_regs(&mut |r, is_def| {
                    if is_def {
                        if let Some(k) = reg_key(r) {
                            live.remove(&k);
                        }
                    }
                });
            }
            if let Some(k) = reg_key(Reg::P(il.inst.qp)) {
                live.insert(k);
            }
            op.visit_regs(&mut |r, is_def| {
                if !is_def {
                    if let Some(k) = reg_key(r) {
                        live.insert(k);
                    }
                }
            });
        }
    }
    let mut idx = 0;
    ils.retain(|_| {
        let k = keep[idx];
        idx += 1;
        k
    });
}

fn reg_key(r: Reg) -> Option<(u8, u16)> {
    match r {
        Reg::G(g) if g.is_virtual() => Some((0, g.0)),
        Reg::F(f) if f.is_virtual() => Some((1, f.0)),
        Reg::P(p) if p.is_virtual() => Some((2, p.0)),
        _ => None,
    }
}

/// The `addl` long-immediate range templates use for `mov_imm`; folds
/// outside it materialize through `movl` instead.
fn fits_addl(v: u64) -> bool {
    let s = v as i64;
    (-0x1F_FFFF..=0x1F_FFFF).contains(&s)
}

/// Constant and copy propagation over the typed IR.
///
/// Facts are only learned from unpredicated defs of single-definition
/// virtuals (a predicated def merges, a redefinition invalidates), so a
/// recorded constant or copy source is valid at every later use. Folds
/// are deliberately minimal — the address arithmetic templates emit:
/// `movl`/`addl`-materialized constants, `add` with a constant operand,
/// immediate-add chains, and shifts of constants.
pub(super) fn propagate(irs: &mut [IrInst]) {
    let mut def_count: HashMap<u16, u32> = HashMap::new();
    for x in irs.iter() {
        x.inst.op.visit_regs(&mut |r, is_def| {
            if is_def {
                if let Reg::G(g) = r {
                    if g.is_virtual() {
                        *def_count.entry(g.0).or_default() += 1;
                    }
                }
            }
        });
    }
    let single = |g: Gr, dc: &HashMap<u16, u32>| dc.get(&g.0).copied() == Some(1);

    let mut konst: HashMap<u16, u64> = HashMap::new();
    let mut copy: HashMap<u16, u16> = HashMap::new();
    for x in irs.iter_mut() {
        // Copy-propagate uses first (sources are single-def, so the
        // replacement is valid wherever the original was).
        x.inst.op.map_regs(&mut |r, is_def| match r {
            Reg::G(g) if !is_def && g.is_virtual() => match copy.get(&g.0) {
                Some(&s) => Reg::G(Gr(s)),
                None => r,
            },
            _ => r,
        });

        // Fold constants into the op.
        let kof = |g: Gr, k: &HashMap<u16, u64>| {
            if g.0 == 0 {
                Some(0)
            } else if g.is_virtual() {
                k.get(&g.0).copied()
            } else {
                None
            }
        };
        let mut rewrite: Option<Op> = None;
        match x.inst.op {
            Op::Add { d, a, b } => match (kof(a, &konst), kof(b, &konst)) {
                (Some(va), Some(vb)) => {
                    let v = va.wrapping_add(vb);
                    rewrite = Some(if fits_addl(v) {
                        Op::AddImm {
                            d,
                            imm: v as i64,
                            a: ipf::regs::R0,
                        }
                    } else {
                        Op::Movl { d, imm: v }
                    });
                }
                (Some(va), None) if fits_addl(va) => {
                    rewrite = Some(Op::AddImm {
                        d,
                        imm: va as i64,
                        a: b,
                    });
                }
                (None, Some(vb)) if fits_addl(vb) => {
                    rewrite = Some(Op::AddImm {
                        d,
                        imm: vb as i64,
                        a,
                    });
                }
                _ => {}
            },
            Op::AddImm { d, imm, a } => {
                if let Some(va) = kof(a, &konst) {
                    let v = va.wrapping_add(imm as u64);
                    if a.0 != 0 {
                        rewrite = Some(if fits_addl(v) {
                            Op::AddImm {
                                d,
                                imm: v as i64,
                                a: ipf::regs::R0,
                            }
                        } else {
                            Op::Movl { d, imm: v }
                        });
                    }
                }
            }
            Op::ShlImm { d, a, count } => {
                if let Some(va) = kof(a, &konst) {
                    let v = va.wrapping_shl(count as u32);
                    rewrite = Some(if fits_addl(v) {
                        Op::AddImm {
                            d,
                            imm: v as i64,
                            a: ipf::regs::R0,
                        }
                    } else {
                        Op::Movl { d, imm: v }
                    });
                }
            }
            _ => {}
        }
        if let Some(op) = rewrite {
            x.inst.op = op;
        }

        // Learn facts from this op.
        if x.inst.qp == P0 {
            match x.inst.op {
                Op::Movl { d, imm } if d.is_virtual() && single(d, &def_count) => {
                    konst.insert(d.0, imm);
                }
                Op::AddImm { d, imm, a } if a.0 == 0 && d.is_virtual() && single(d, &def_count) => {
                    konst.insert(d.0, imm as u64);
                }
                Op::AddImm { d, imm: 0, a }
                    if a.is_virtual()
                        && d.is_virtual()
                        && single(d, &def_count)
                        && single(a, &def_count) =>
                {
                    let src = copy.get(&a.0).copied().unwrap_or(a.0);
                    copy.insert(d.0, src);
                }
                _ => {}
            }
        }
    }
    recompute_effects(irs);
}

/// Cross-block EFLAGS elimination: deletes lazy-flags materializations
/// whose result is overwritten before any observation point. The
/// observation points are branches (side exits, the inline dispatch)
/// and ops that can fault (the recovery walk reads all guest state);
/// between those, only the final write into the EFLAGS home survives.
/// Deleting a write removes its reads, which can cascade through the
/// read-modify-write chains lazy flags build, so the pass iterates to a
/// fixpoint.
pub(super) fn eflags_elim(irs: &mut Vec<IrInst>) {
    loop {
        let lv = liveness::analyze(irs);
        let mut keep = vec![true; irs.len()];
        let mut removed = false;
        for (i, x) in irs.iter().enumerate() {
            if !x.fx.writes_eflags || lv.eflags_out[i] {
                continue;
            }
            if x.fx.is_branch || x.fx.can_fault || x.fx.mem == MemEffect::Store {
                continue;
            }
            // Deletable only if every def is the (dead) EFLAGS home or
            // a virtual nothing reads afterwards.
            let mut only_dead = true;
            x.inst.op.visit_regs(&mut |r, is_def| {
                if !is_def {
                    return;
                }
                let dead = match r {
                    Reg::G(g) if g == GR_EFLAGS => true,
                    _ => match liveness::virt_key(r) {
                        Some(k) => !lv.live_after(i, k),
                        None => false,
                    },
                };
                only_dead &= dead;
            });
            if only_dead {
                keep[i] = false;
                removed = true;
            }
        }
        if !removed {
            return;
        }
        let mut idx = 0;
        irs.retain(|_| {
            let k = keep[idx];
            idx += 1;
            k
        });
    }
}

/// Dead guest-writeback elision: deletes an unpredicated,
/// non-faulting write into a guest GPR home when the register's next
/// event is an unconditional full redefinition, with no intervening
/// read, branch, faulting op, or predicated op — nothing between the
/// two writes can observe the first. Superinstruction fusion makes
/// these common: the fused emitters elide temporaries *inside* an
/// idiom, and this pass catches writebacks that become dead only once
/// adjacent idioms land on the same trace. Only enabled alongside
/// `enable_superinst`, keeping the baseline IR pipeline byte-for-byte
/// unchanged.
pub(super) fn elide_dead_guest_writes(irs: &mut Vec<IrInst>) {
    use crate::state::GR_GUEST;
    // The op's sole def is a physical guest GPR home that the op does
    // not also read (a read-modify-write needs the prior value).
    let guest_def = |x: &IrInst| -> Option<Gr> {
        if x.inst.qp != P0
            || x.fx.is_branch
            || x.fx.can_fault
            || x.fx.writes_eflags
            || x.fx.mem != MemEffect::None
        {
            return None;
        }
        // Two passes: collect defs first, then look for a read of the
        // def register — operand visit order must not hide an RMW.
        let mut def = None;
        let mut ok = true;
        x.inst.op.visit_regs(&mut |r, is_def| {
            if !is_def {
                return;
            }
            match r {
                Reg::G(g) if (GR_GUEST..GR_GUEST + 8).contains(&g.0) && def.is_none() => {
                    def = Some(g);
                }
                _ => ok = false,
            }
        });
        let g = def?;
        if !ok {
            return None;
        }
        let mut reads = false;
        x.inst.op.visit_regs(&mut |r, is_def| {
            if !is_def && r == Reg::G(g) {
                reads = true;
            }
        });
        if reads {
            None
        } else {
            Some(g)
        }
    };
    let mut keep = vec![true; irs.len()];
    for i in 0..irs.len() {
        let Some(g) = guest_def(&irs[i]) else {
            continue;
        };
        // Reads are checked regardless of def order within an op, so a
        // later read-modify-write of `g` counts as an observation.
        let mut deletable = false;
        for x in irs[i + 1..].iter() {
            if x.fx.is_branch || x.fx.can_fault || x.inst.qp != P0 {
                break;
            }
            let mut reads = false;
            let mut redefs = false;
            x.inst.op.visit_regs(&mut |r, is_def| {
                if r == Reg::G(g) {
                    if is_def {
                        redefs = true;
                    } else {
                        reads = true;
                    }
                }
            });
            if reads {
                break;
            }
            if redefs {
                deletable = true;
                break;
            }
        }
        keep[i] = !deletable;
    }
    let mut idx = 0;
    irs.retain(|_| {
        let k = keep[idx];
        idx += 1;
        k
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::templates::Sink;
    use ipf::regs::R0;

    fn il(inst: ipf::Inst) -> IrInst {
        IrInst::new(inst, 0)
    }

    #[test]
    fn lvn_dedups_identical_computation() {
        let mut s = Sink::new();
        let (v1, v2) = (s.vg(), s.vg());
        let g = crate::state::guest_gpr(0);
        let mut ils = vec![
            il(ipf::Inst::new(Op::AddImm {
                d: v1,
                imm: 8,
                a: g,
            })),
            il(ipf::Inst::new(Op::AddImm {
                d: v2,
                imm: 8,
                a: g,
            })),
            il(ipf::Inst::new(Op::St {
                sz: 4,
                addr: v1,
                val: v2,
            })),
        ];
        lvn(&mut ils);
        assert_eq!(ils.len(), 2, "duplicate EA computation removed");
        // The store now uses v1 twice.
        if let Op::St { addr, val, .. } = ils[1].inst.op {
            assert_eq!(addr, val);
        } else {
            panic!("store expected");
        }
    }

    #[test]
    fn lvn_respects_guest_register_versions() {
        let mut s = Sink::new();
        let (v1, v2) = (s.vg(), s.vg());
        let g = crate::state::guest_gpr(0);
        let mut ils = vec![
            il(ipf::Inst::new(Op::AddImm {
                d: v1,
                imm: 8,
                a: g,
            })),
            il(ipf::Inst::new(Op::AddImm { d: g, imm: 1, a: g })), // g changes
            il(ipf::Inst::new(Op::AddImm {
                d: v2,
                imm: 8,
                a: g,
            })),
            il(ipf::Inst::new(Op::St {
                sz: 4,
                addr: v1,
                val: v2,
            })),
        ];
        lvn(&mut ils);
        assert_eq!(ils.len(), 4, "not redundant after the write");
    }

    #[test]
    fn lvn_load_killed_by_store() {
        let mut s = Sink::new();
        let (v1, v2, v3) = (s.vg(), s.vg(), s.vg());
        let g = crate::state::guest_gpr(0);
        let mut ils = vec![
            il(ipf::Inst::new(Op::Ld {
                sz: 4,
                d: v1,
                addr: g,
                spec: false,
            })),
            il(ipf::Inst::new(Op::St {
                sz: 4,
                addr: g,
                val: v1,
            })),
            il(ipf::Inst::new(Op::Ld {
                sz: 4,
                d: v2,
                addr: g,
                spec: false,
            })),
            il(ipf::Inst::new(Op::Add {
                d: v3,
                a: v1,
                b: v2,
            })),
            il(ipf::Inst::new(Op::St {
                sz: 4,
                addr: g,
                val: v3,
            })),
        ];
        let before = ils.len();
        lvn(&mut ils);
        assert_eq!(ils.len(), before, "load after store must reload");
    }

    #[test]
    fn lvn_redundant_load_removed() {
        let mut s = Sink::new();
        let (v1, v2, v3) = (s.vg(), s.vg(), s.vg());
        let g = crate::state::guest_gpr(0);
        let mut ils = vec![
            il(ipf::Inst::new(Op::Ld {
                sz: 4,
                d: v1,
                addr: g,
                spec: false,
            })),
            il(ipf::Inst::new(Op::Ld {
                sz: 4,
                d: v2,
                addr: g,
                spec: false,
            })),
            il(ipf::Inst::new(Op::Add {
                d: v3,
                a: v1,
                b: v2,
            })),
            il(ipf::Inst::new(Op::St {
                sz: 4,
                addr: g,
                val: v3,
            })),
        ];
        lvn(&mut ils);
        assert_eq!(ils.len(), 3, "second load deduplicated");
    }

    #[test]
    fn dce_removes_unused_virtuals() {
        let mut s = Sink::new();
        let (v1, v2) = (s.vg(), s.vg());
        let g = crate::state::guest_gpr(0);
        let mut ils = vec![
            il(ipf::Inst::new(Op::AddImm {
                d: v1,
                imm: 1,
                a: R0,
            })),
            il(ipf::Inst::new(Op::AddImm {
                d: v2,
                imm: 2,
                a: R0,
            })), // dead
            il(ipf::Inst::new(Op::AddImm {
                d: g,
                imm: 0,
                a: v1,
            })),
        ];
        dce(&mut ils);
        assert_eq!(ils.len(), 2);
    }

    #[test]
    fn dce_keeps_stores_and_guest_writes() {
        let mut s = Sink::new();
        let v1 = s.vg();
        let g = crate::state::guest_gpr(3);
        let mut ils = vec![
            il(ipf::Inst::new(Op::AddImm {
                d: v1,
                imm: 1,
                a: R0,
            })),
            il(ipf::Inst::new(Op::St {
                sz: 4,
                addr: v1,
                val: g,
            })),
            il(ipf::Inst::new(Op::AddImm {
                d: g,
                imm: 5,
                a: R0,
            })),
        ];
        dce(&mut ils);
        assert_eq!(ils.len(), 3);
    }

    #[test]
    fn propagate_folds_constant_address_chains() {
        let mut s = Sink::new();
        let (v1, v2, v3) = (s.vg(), s.vg(), s.vg());
        let g = crate::state::guest_gpr(0);
        let mut irs = vec![
            il(ipf::Inst::new(Op::Movl { d: v1, imm: 0x1000 })),
            il(ipf::Inst::new(Op::AddImm {
                d: v2,
                imm: 8,
                a: v1,
            })),
            il(ipf::Inst::new(Op::Add { d: v3, a: g, b: v2 })),
            il(ipf::Inst::new(Op::St {
                sz: 4,
                addr: v3,
                val: g,
            })),
        ];
        propagate(&mut irs);
        assert!(
            matches!(irs[2].inst.op, Op::AddImm { imm: 0x1008, a, .. } if a == g),
            "constant chain folded into the add: {:?}",
            irs[2].inst.op
        );
        dce(&mut irs);
        assert_eq!(irs.len(), 2, "dead constant producers cleaned up");
    }

    #[test]
    fn propagate_forwards_copies() {
        let mut s = Sink::new();
        let (v1, v2) = (s.vg(), s.vg());
        let g = crate::state::guest_gpr(0);
        let mut irs = vec![
            il(ipf::Inst::new(Op::AddImm {
                d: v1,
                imm: 3,
                a: g,
            })),
            il(ipf::Inst::new(Op::AddImm {
                d: v2,
                imm: 0,
                a: v1,
            })),
            il(ipf::Inst::new(Op::St {
                sz: 4,
                addr: v2,
                val: g,
            })),
        ];
        propagate(&mut irs);
        assert!(
            matches!(irs[2].inst.op, Op::St { addr, .. } if addr == v1),
            "store reads through the copy"
        );
    }

    #[test]
    fn eflags_elim_drops_overwritten_materializations() {
        use crate::state::GR_EFLAGS;
        let g = crate::state::guest_gpr(0);
        let mut irs = vec![
            // Dead: overwritten before any observer.
            il(ipf::Inst::new(Op::AddImm {
                d: GR_EFLAGS,
                imm: 1,
                a: R0,
            })),
            // Live: the faulting store observes it.
            il(ipf::Inst::new(Op::AddImm {
                d: GR_EFLAGS,
                imm: 2,
                a: R0,
            })),
            il(ipf::Inst::new(Op::St {
                sz: 4,
                addr: g,
                val: g,
            })),
            // Live: trace exit observes it.
            il(ipf::Inst::new(Op::AddImm {
                d: GR_EFLAGS,
                imm: 3,
                a: R0,
            })),
        ];
        eflags_elim(&mut irs);
        assert_eq!(irs.len(), 3, "only the unobserved write is deleted");
        assert!(
            matches!(irs[0].inst.op, Op::AddImm { imm: 2, .. }),
            "the pre-fault write survives"
        );
    }

    #[test]
    fn eflags_elim_cascades_through_rmw_chains() {
        use crate::state::GR_EFLAGS;
        let mut s = Sink::new();
        let v1 = s.vg();
        let g = crate::state::guest_gpr(0);
        let mut irs = vec![
            // A lazy-flags RMW chain: compute a flag bit, merge it in.
            il(ipf::Inst::new(Op::AddImm {
                d: v1,
                imm: 1,
                a: g,
            })),
            il(ipf::Inst::new(Op::Dep {
                d: GR_EFLAGS,
                src: v1,
                target: GR_EFLAGS,
                pos: 0,
                len: 1,
            })),
            // Full overwrite before any observer kills the chain.
            il(ipf::Inst::new(Op::AddImm {
                d: GR_EFLAGS,
                imm: 0,
                a: R0,
            })),
        ];
        eflags_elim(&mut irs);
        dce(&mut irs);
        assert_eq!(irs.len(), 1, "merge deleted, then its input is dead");
        assert!(matches!(irs[0].inst.op, Op::AddImm { d, .. } if d == GR_EFLAGS));
    }
}
