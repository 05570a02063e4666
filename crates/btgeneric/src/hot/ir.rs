//! The hot-phase typed trace IR.
//!
//! Template emission produces a flat list of micro-ops whose meaning —
//! which guest registers they touch, whether they observe or define
//! EFLAGS, whether they can fault — is implicit in the register
//! numbering conventions of `state.rs`. The typed IR makes those
//! effects explicit per op ([`Effects`]), which is what lets the
//! generic passes in `opt.rs`, `liveness.rs`, and `regalloc.rs` reason
//! about traces (including devirtualized call/ret-folded ones and
//! traces ending *through* an indirect terminator) without pattern
//! matching on template shapes.

use crate::layout::StubKind;
use crate::state::{self, GR_EFLAGS, GR_GUEST, GR_STATE};
use crate::templates::{IlItem, Sink};
use ipf::inst::{Op, Reg, Target};
use std::collections::HashSet;

/// Guest-memory effect of one op.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(super) enum MemEffect {
    /// No memory access.
    None,
    /// Reads memory.
    Load,
    /// Writes memory.
    Store,
}

/// The explicit effect summary of one micro-op: guest-register,
/// EFlags, and memory effects plus the control/fault bits the
/// commit-point discipline cares about.
#[derive(Clone, Copy, Debug)]
pub(super) struct Effects {
    /// Bitmask of guest GPRs (EAX..EDI) read.
    pub guest_reads: u8,
    /// Bitmask of guest GPRs written.
    pub guest_writes: u8,
    /// Reads the lazy EFLAGS home (including merge-writes into it).
    pub reads_eflags: bool,
    /// Defines the lazy EFLAGS home.
    pub writes_eflags: bool,
    /// Memory effect.
    pub mem: MemEffect,
    /// Is a branch (side exit, inline-dispatch hit, or stub exit).
    pub is_branch: bool,
    /// May fault at run time (commit point).
    pub can_fault: bool,
    /// Defines architectural state (anything outside the renaming
    /// pools and scratch banks).
    pub writes_state: bool,
}

impl Effects {
    /// Classifies one instruction.
    pub fn of(inst: &ipf::Inst) -> Effects {
        let op = &inst.op;
        let mut fx = Effects {
            guest_reads: 0,
            guest_writes: 0,
            reads_eflags: false,
            writes_eflags: false,
            mem: MemEffect::None,
            is_branch: op.is_branch(),
            can_fault: op.can_fault(),
            writes_state: false,
        };
        op.visit_regs(|r, is_def| {
            if let Reg::G(g) = r {
                if (GR_GUEST..GR_GUEST + 8).contains(&g.0) {
                    let bit = 1u8 << (g.0 - GR_GUEST);
                    if is_def {
                        fx.guest_writes |= bit;
                    } else {
                        fx.guest_reads |= bit;
                    }
                }
                if g == GR_EFLAGS {
                    if is_def {
                        fx.writes_eflags = true;
                    } else {
                        fx.reads_eflags = true;
                    }
                }
            }
            if is_def && is_state_phys(r) {
                fx.writes_state = true;
            }
        });
        if op.is_mem() {
            fx.mem = if op.is_store() {
                MemEffect::Store
            } else {
                MemEffect::Load
            };
        }
        fx
    }
}

/// One typed-IR op: the micro-op plus provenance and its explicit
/// effects.
#[derive(Clone, Debug)]
pub(super) struct IrInst {
    /// The micro-op (virtual registers allowed until allocation).
    pub inst: ipf::Inst,
    /// Originating IA-32 instruction.
    pub ia32_ip: u32,
    /// Recovery index (assigned to faulty ops before allocation).
    pub rec: Option<u32>,
    /// Explicit effect summary (recomputed after rewriting passes).
    pub fx: Effects,
}

impl IrInst {
    /// Lifts one micro-op into the IR, computing its effects.
    pub fn new(inst: ipf::Inst, ia32_ip: u32) -> IrInst {
        IrInst {
            inst,
            ia32_ip,
            rec: None,
            fx: Effects::of(&inst),
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
    fn effects_classify_guest_and_eflags() {
        let g0 = state::guest_gpr(0);
        let fx = Effects::of(&ipf::Inst::new(Op::Add {
            d: g0,
            a: Src::Imm(1),
            b: g0,
        }));
        assert_eq!(fx.guest_reads, 1);
        assert_eq!(fx.guest_writes, 1);
        assert!(fx.writes_state);
        assert!(!fx.writes_eflags);

        let fx = Effects::of(&ipf::Inst::new(Op::Dep {
            d: GR_EFLAGS,
            src: g0,
            target: GR_EFLAGS,
            pos: 0,
            len: 1,
        }));
        assert!(fx.writes_eflags, "dep into the EFLAGS home defines it");
        assert!(fx.reads_eflags, "merge-write also reads the old value");

        let fx = Effects::of(&ipf::Inst::new(Op::St {
            sz: 4,
            addr: g0,
            val: g0,
        }));
        assert_eq!(fx.mem, MemEffect::Store);
        assert!(fx.can_fault);
    }

    #[test]
    fn pool_registers_are_not_state() {
        assert!(!is_state_phys(Reg::G(Gr(state::GR_POOL))));
        assert!(!is_state_phys(Reg::G(Gr(state::GR_SCRATCH))));
        assert!(is_state_phys(Reg::G(state::GR_EFLAGS)));
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
