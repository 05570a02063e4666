//! The hot-phase typed trace IR.
//!
//! Template emission produces a flat list of micro-ops; the IR keeps
//! each with the IA-32 instruction it came from and, once assigned,
//! its recovery index. What an op does is asked of the op itself: its
//! operand walk (`visit_regs`) names the registers it reads and
//! writes — the guest homes and the EFLAGS home of `state.rs` among
//! them — and `Op::props` whether it branches, can fault, stores or is
//! a fence. That is what lets the generic passes in `opt.rs`,
//! `liveness.rs` and `regalloc.rs` reason about traces (including
//! devirtualized call/ret-folded ones and traces ending *through* an
//! indirect terminator) without pattern matching on template shapes.

use crate::layout::StubKind;
use crate::state::{self, GR_STATE};
use crate::templates::{IlItem, Sink};
use ipf::inst::{Op, Reg, Target};
use std::collections::HashSet;

/// One typed-IR op: the micro-op plus its provenance.
#[derive(Clone, Debug)]
pub(super) struct IrInst {
    /// The micro-op (virtual registers allowed until allocation).
    pub inst: ipf::Inst,
    /// Originating IA-32 instruction.
    pub ia32_ip: u32,
    /// Recovery index (assigned to faulty ops before allocation).
    pub rec: Option<u32>,
}

impl IrInst {
    /// Lifts one micro-op into the IR.
    pub fn new(inst: ipf::Inst, ia32_ip: u32) -> IrInst {
        IrInst {
            inst,
            ia32_ip,
            rec: None,
        }
    }
}

/// Whether a register of still-virtual (pre-allocation) code is
/// architectural state: anything that is not a virtual or a hardwired
/// constant register.
pub(super) fn is_state_prealloc(r: Reg) -> bool {
    match r {
        Reg::G(g) => !g.is_virtual() && g.0 != 0,
        Reg::F(f) => !f.is_virtual() && f.0 > 1,
        Reg::P(p) => !p.is_virtual() && p.0 != 0,
        Reg::B(_) => true,
    }
}

/// Whether a *physical* register is architectural state. Unlike
/// [`is_state_prealloc`], this exempts
/// the renaming pools and scratch banks by range, so a backend pass
/// over allocated IR does not treat every pool register as a
/// commit-barrier-pinned state write.
pub(super) fn is_state_phys(r: Reg) -> bool {
    match r {
        Reg::G(g) => {
            !g.is_virtual()
                && g.0 != 0
                && !(state::GR_SCRATCH..state::GR_POOL + state::NUM_POOL).contains(&g.0)
        }
        Reg::F(f) => {
            !f.is_virtual()
                && f.0 > 1
                && !(state::FR_SCRATCH..state::FR_SCRATCH + state::NUM_FR_SCRATCH).contains(&f.0)
        }
        // Predicates below the pool (template scratch) are treated as
        // state conservatively; hot bodies only ever use virtuals.
        Reg::P(p) => {
            !p.is_virtual()
                && p.0 != 0
                && !(state::PR_POOL..state::PR_POOL + state::NUM_PR_POOL).contains(&p.0)
        }
        Reg::B(_) => true,
    }
}

/// Collects a trace body's sink items into the typed IR the hot
/// compiler starts from: rejects shapes the trace compiler cannot
/// handle (in-body label binds, branches to unknown labels) and injects
/// the IA-32 state register before fault-raising stub branches.
pub(super) fn collect(body: &Sink, exit_labels: &HashSet<u32>) -> Option<Vec<IrInst>> {
    // Fault-raising stub branches need the state register set.
    let fault_stubs = [
        StubKind::DivZero.addr(),
        StubKind::FpStackFault.addr(),
        StubKind::InterpStep.addr(),
    ];
    let mut irs: Vec<IrInst> = Vec::with_capacity(body.items.len() + 4);
    for item in &body.items {
        let IlItem::Inst(e) = item else {
            return None;
        };
        let ip = e.meta.ia32_ip;
        match e.inst.op {
            Op::Br {
                target: Target::Abs(t),
            } if fault_stubs.contains(&t) => {
                let set_state = Op::Movl {
                    d: GR_STATE,
                    imm: ip as u64,
                };
                irs.push(IrInst::new(ipf::Inst::pred(e.inst.qp, set_state), ip));
            }
            op => {
                if let Some(Target::Label(l)) = op.target() {
                    if !exit_labels.contains(&l) {
                        return None;
                    }
                }
            }
        }
        irs.push(IrInst::new(e.inst, ip));
    }
    Some(irs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipf::inst::Src;
    use ipf::regs::{Gr, R0};

    #[test]
    fn pool_registers_are_not_state() {
        assert!(!is_state_phys(Reg::G(Gr(state::GR_POOL))));
        assert!(!is_state_phys(Reg::G(Gr(state::GR_SCRATCH))));
        assert!(is_state_phys(Reg::G(state::Eflags::HOMES[0])));
        assert!(is_state_phys(Reg::G(state::guest_gpr(4))));
        assert!(!is_state_phys(Reg::G(R0)));
        assert!(!is_state_phys(Reg::F(ipf::regs::Fr(state::FR_SCRATCH))));
        assert!(is_state_phys(Reg::F(ipf::regs::Fr(state::FR_X87))));
        assert!(!is_state_phys(Reg::P(ipf::regs::Pr(state::PR_POOL))));
    }

    #[test]
    fn collect_rejects_binds_and_unknown_labels() {
        let mut s = Sink::new();
        s.emit(Op::Add {
            d: state::guest_gpr(0),
            a: Src::Imm(1),
            b: R0,
        });
        let known = s.local_label();
        s.emit(Op::Br {
            target: Target::Label(known),
        });
        let labels: HashSet<u32> = [known].into_iter().collect();
        assert!(collect(&s, &labels).is_some());

        let unknown = s.local_label();
        s.emit(Op::Br {
            target: Target::Label(unknown),
        });
        assert!(collect(&s, &labels).is_none(), "unknown label rejected");

        let mut s2 = Sink::new();
        s2.bind(7);
        assert!(collect(&s2, &labels).is_none(), "in-body bind rejected");
    }

    #[test]
    fn collect_injects_state_before_fault_stubs() {
        let mut s = Sink::new();
        s.set_ip(0x40_1234);
        s.emit(Op::Br {
            target: Target::Abs(StubKind::DivZero.addr()),
        });
        let irs = collect(&s, &HashSet::new()).unwrap();
        assert_eq!(irs.len(), 2);
        assert!(matches!(
            irs[0].inst.op,
            Op::Movl {
                d: GR_STATE,
                imm: 0x40_1234
            }
        ));
    }
}
