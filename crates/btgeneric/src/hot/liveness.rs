//! Per-op liveness analysis over the typed trace IR.
//!
//! A trace body is straight-line code with embedded side exits: a
//! predicated branch's not-taken path *is* the continuation, so a
//! virtual register is live after an op exactly when the next op that
//! reads or kills it reads it. The register allocator reads it; the
//! liveness of the guest-state homes, which side exits and faulting ops
//! observe, is `opt::dead_code`'s own.

use super::ir::IrInst;
use ipf::hash::HashMap;
use ipf::inst::Reg;
use ipf::regs::P0;

/// A virtual register key: `(class, number)` with class 0 = general,
/// 1 = floating, 2 = predicate. Branch registers are never virtual.
pub(super) type VirtKey = (u8, u16);

/// Maps a register to its virtual key, if virtual.
pub(super) fn virt_key(r: Reg) -> Option<VirtKey> {
    match r {
        Reg::G(g) if g.is_virtual() => Some((0, g.0)),
        Reg::F(f) if f.is_virtual() => Some((1, f.0)),
        Reg::P(p) if p.is_virtual() => Some((2, p.0)),
        _ => None,
    }
}

/// The result of one liveness pass.
pub(super) struct Liveness {
    /// Per virtual, the positions that read it (qualifying predicate
    /// or use), ascending.
    reads: HashMap<VirtKey, Vec<usize>>,
    /// Per virtual, the positions whose unpredicated def kills it,
    /// ascending.
    kills: HashMap<VirtKey, Vec<usize>>,
    /// Every position referencing each virtual (qp, uses, and defs),
    /// ascending.
    pub refs: HashMap<VirtKey, Vec<usize>>,
}

/// The first of the ascending `positions` strictly after `i`.
fn first_after(positions: Option<&Vec<usize>>, i: usize) -> Option<usize> {
    let v = positions?;
    v.get(v.partition_point(|&x| x <= i)).copied()
}

impl Liveness {
    /// Whether `key` is live after op `i`: the next op that reads or
    /// kills it reads it (an op that does both reads first).
    pub fn live_after(&self, i: usize, key: VirtKey) -> bool {
        let read = first_after(self.reads.get(&key), i);
        let kill = first_after(self.kills.get(&key), i);
        read.is_some_and(|r| kill.is_none_or(|k| r <= k))
    }

    /// The first reference to `key` strictly after position `i`.
    pub fn next_ref_after(&self, key: VirtKey, i: usize) -> Option<usize> {
        first_after(self.refs.get(&key), i)
    }
}

/// Records, per virtual, where the trace reads, kills and references
/// it. Unpredicated defs kill; predicated defs merge, so the value lives
/// through them.
pub(super) fn analyze(ir: &[IrInst]) -> Liveness {
    let mut lv = Liveness {
        reads: HashMap::default(),
        kills: HashMap::default(),
        refs: HashMap::default(),
    };
    let note = |map: &mut HashMap<VirtKey, Vec<usize>>, r: Reg, i: usize| {
        if let Some(k) = virt_key(r) {
            let v = map.entry(k).or_default();
            if v.last() != Some(&i) {
                v.push(i);
            }
        }
    };
    for (i, x) in ir.iter().enumerate() {
        let unpredicated = x.inst.qp == P0;
        note(&mut lv.reads, Reg::P(x.inst.qp), i);
        note(&mut lv.refs, Reg::P(x.inst.qp), i);
        x.inst.op.visit_regs(|r, is_def| {
            match (is_def, unpredicated) {
                (false, _) => note(&mut lv.reads, r, i),
                (true, true) => note(&mut lv.kills, r, i),
                (true, false) => {}
            }
            note(&mut lv.refs, r, i);
        });
    }
    lv
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::StubKind;
    use crate::state::guest_gpr;
    use ipf::inst::{Op, Src, Target};
    use ipf::regs::{Gr, Pr, R0};

    fn ils_to_ir(ops: Vec<ipf::Inst>) -> Vec<IrInst> {
        ops.into_iter().map(|inst| IrInst::new(inst, 0)).collect()
    }

    #[test]
    fn virtual_dies_after_last_use_across_side_exit() {
        let v = Gr(300);
        let p = Pr(400);
        let ir = ils_to_ir(vec![
            // v = guest0 + 1
            ipf::Inst::new(Op::Add {
                d: v,
                a: Src::Imm(1),
                b: guest_gpr(0),
            }),
            // p = (v == 0); side exit if p
            ipf::Inst::new(Op::Cmp {
                rel: ipf::inst::CmpRel::Eq,
                pt: p,
                pf: ipf::regs::P0,
                a: Src::Reg(v),
                b: R0,
            }),
            ipf::Inst::pred(
                p,
                Op::Br {
                    target: Target::Abs(StubKind::Untranslated.addr()),
                },
            ),
            // guest1 = v (last use of v)
            ipf::Inst::new(Op::Add {
                d: guest_gpr(1),
                a: Src::Imm(0),
                b: v,
            }),
            ipf::Inst::new(Op::Add {
                d: guest_gpr(2),
                a: Src::Imm(7),
                b: R0,
            }),
        ]);
        let lv = analyze(&ir);
        let vk = (0u8, 300u16);
        assert!(lv.live_after(0, vk), "v live across the side exit");
        assert!(lv.live_after(2, vk), "v still live after the branch");
        assert!(!lv.live_after(3, vk), "v dead after its last use");
        assert!(!lv.live_after(4, vk));
        assert_eq!(lv.refs[&vk], vec![0, 1, 3]);
        assert_eq!(lv.next_ref_after(vk, 1), Some(3));
        assert_eq!(
            lv.refs[&(2, 400)].last(),
            Some(&2),
            "qp counts as a reference"
        );
    }
}
