//! Constraint-driven register allocation for the typed trace IR.
//!
//! The allocator walks the trace in program order, renaming virtual
//! registers into the physical pools described by the per-class
//! constraint table. Fixed physical operands (guest GPR homes, the
//! EFLAGS home, payload registers, …) constrain themselves and pass
//! through untouched. Under general-register pressure it spills the
//! active value with the farthest next reference to a small
//! always-mapped slot area ([`crate::layout::SPILL_BASE`]); floating
//! and predicate registers have no spill path, so exhausting those
//! pools fails the allocation and the trace stays cold.

use super::ir::IrInst;
use super::liveness::{self, virt_key, Liveness, VirtKey};
use crate::layout;
use crate::state;
use ipf::hash::HashMap;
use ipf::inst::{Op, Reg};
use ipf::regs::{Fr, Gr, Pr, P0};

/// One allocated (fully physical) instruction.
#[derive(Clone, Copy, Debug)]
pub(super) struct AllocInst {
    /// The rewritten instruction.
    pub inst: ipf::Inst,
    /// Index of the originating IR op; `None` for spill traffic.
    pub src: Option<usize>,
}

/// Reserved spill-pointer temporary, excluded from every pool so a
/// spill or reload can always materialize its slot address.
const SPILL_PTR: Gr = Gr(state::GR_SCRATCH);

/// One row of the constraint table.
struct ClassRow {
    /// Allocatable physical register numbers, in preference order.
    free: Vec<u16>,
    /// Whether exhaustion may be resolved by spilling to memory.
    can_spill: bool,
}

/// The per-class constraint table. General registers get the renaming
/// pool plus the scratch bank (minus the reserved spill pointer) and
/// may spill; floating registers get the FP scratch bank minus `f63`
/// (the exit-prologue shuffle temporary); predicates get the predicate
/// pool. Everything outside these pools is architectural state and is
/// never allocated.
fn class_table() -> [ClassRow; 3] {
    [
        ClassRow {
            free: (state::GR_SCRATCH + 1..state::GR_POOL + state::NUM_POOL).collect(),
            can_spill: true,
        },
        ClassRow {
            free: (state::FR_SCRATCH..state::FR_SCRATCH + state::NUM_FR_SCRATCH - 1).collect(),
            can_spill: false,
        },
        ClassRow {
            free: (state::PR_POOL..state::PR_POOL + state::NUM_PR_POOL).collect(),
            can_spill: false,
        },
    ]
}

/// Rebuilds a physical register of class `class`.
pub(super) fn phys_reg(class: u8, n: u16) -> Reg {
    match class {
        0 => Reg::G(Gr(n)),
        1 => Reg::F(Fr(n)),
        _ => Reg::P(Pr(n)),
    }
}

/// Mutable allocation state threaded through the walk.
struct AllocState {
    map: HashMap<VirtKey, u16>,
    /// Insertion-ordered live assignments (deterministic victim scan).
    active: Vec<VirtKey>,
    spilled: HashMap<VirtKey, u64>,
    slot_free: Vec<u64>,
    pools: [ClassRow; 3],
    out: Vec<AllocInst>,
}

impl AllocState {
    /// Takes a physical register of `class`, spilling a general
    /// register (farthest next reference, excluding `cur`) if the pool
    /// is dry. Returns `None` when the class cannot be satisfied.
    fn take(&mut self, class: u8, cur: &[VirtKey], i: usize, lv: &Liveness) -> Option<u16> {
        let row = &mut self.pools[class as usize];
        if !row.free.is_empty() {
            return Some(row.free.remove(0));
        }
        if !row.can_spill {
            return None;
        }
        // Victim: the active general register whose next reference is
        // farthest away (a value never referenced again would have been
        // released already, but treat it as infinitely far for safety).
        let mut victim: Option<(VirtKey, usize)> = None;
        for &k in &self.active {
            if k.0 != class || cur.contains(&k) {
                continue;
            }
            let next = lv.next_ref_after(k, i).unwrap_or(usize::MAX);
            if victim.is_none_or(|(_, best)| next > best) {
                victim = Some((k, next));
            }
        }
        let (vk, _) = victim?;
        let slot = self.slot_free.pop()?;
        let phys = self.map.remove(&vk).expect("active implies mapped");
        self.active.retain(|&k| k != vk);
        self.spilled.insert(vk, slot);
        self.out.push(AllocInst {
            inst: ipf::Inst::new(Op::Movl {
                d: SPILL_PTR,
                imm: slot,
            }),
            src: None,
        });
        self.out.push(AllocInst {
            inst: ipf::Inst::new(Op::St {
                sz: 8,
                addr: SPILL_PTR,
                val: Gr(phys),
            }),
            src: None,
        });
        Some(phys)
    }

    /// Binds `k` to a fresh physical register.
    fn bind(&mut self, k: VirtKey, cur: &[VirtKey], i: usize, lv: &Liveness) -> Option<u16> {
        let phys = self.take(k.0, cur, i, lv)?;
        self.map.insert(k, phys);
        self.active.push(k);
        Some(phys)
    }

    /// Reloads a spilled general register into a fresh physical one.
    fn reload(&mut self, k: VirtKey, cur: &[VirtKey], i: usize, lv: &Liveness) -> Option<u16> {
        let slot = self.spilled.remove(&k).expect("reload of unspilled value");
        let phys = self.bind(k, cur, i, lv)?;
        self.out.push(AllocInst {
            inst: ipf::Inst::new(Op::Movl {
                d: SPILL_PTR,
                imm: slot,
            }),
            src: None,
        });
        self.out.push(AllocInst {
            inst: ipf::Inst::new(Op::Ld {
                sz: 8,
                d: Gr(phys),
                addr: SPILL_PTR,
                spec: false,
            }),
            src: None,
        });
        self.slot_free.push(slot);
        Some(phys)
    }

    /// Releases every register in `cur` that is dead after op `i`.
    fn release_dead(&mut self, cur: &[VirtKey], i: usize, lv: &Liveness) {
        for &k in cur {
            if lv.live_after(i, k) {
                continue;
            }
            if let Some(phys) = self.map.remove(&k) {
                self.active.retain(|&a| a != k);
                self.pools[k.0 as usize].free.push(phys);
            }
            if let Some(slot) = self.spilled.remove(&k) {
                self.slot_free.push(slot);
            }
        }
    }
}

/// Allocates every virtual register in `ir`, returning the physical
/// instruction stream with spill traffic inserted, or `None` if the
/// constraint table cannot be satisfied.
pub(super) fn allocate(ir: &[IrInst]) -> Option<Vec<AllocInst>> {
    let lv = liveness::analyze(ir);
    let mut st = AllocState {
        map: HashMap::default(),
        active: Vec::new(),
        spilled: HashMap::default(),
        slot_free: (0..layout::SPILL_SLOTS)
            .rev()
            .map(|k| layout::SPILL_BASE + k * 8)
            .collect(),
        pools: class_table(),
        out: Vec::with_capacity(ir.len()),
    };

    for (i, x) in ir.iter().enumerate() {
        // Partition this op's virtual references.
        let mut uses: Vec<VirtKey> = Vec::new();
        let mut defs: Vec<VirtKey> = Vec::new();
        if let Some(k) = virt_key(Reg::P(x.inst.qp)) {
            uses.push(k);
        }
        x.inst.op.visit_regs(|r, is_def| {
            if let Some(k) = virt_key(r) {
                let list = if is_def { &mut defs } else { &mut uses };
                if !list.contains(&k) {
                    list.push(k);
                }
            }
        });
        let mut cur = uses.clone();
        for &k in &defs {
            if !cur.contains(&k) {
                cur.push(k);
            }
        }

        // Every use must be in a register; a predicated def merges, so
        // its old value must be resident too.
        let predicated = x.inst.qp != P0;
        for &k in uses.iter().chain(defs.iter().filter(|_| predicated)) {
            if st.spilled.contains_key(&k) {
                st.reload(k, &cur, i, &lv)?;
            } else if !st.map.contains_key(&k) {
                st.bind(k, &cur, i, &lv)?;
            }
        }
        // Unpredicated defs overwrite: any spilled old value is dead.
        for &k in &defs {
            if !predicated {
                if let Some(slot) = st.spilled.remove(&k) {
                    st.slot_free.push(slot);
                }
            }
            if !st.map.contains_key(&k) {
                st.bind(k, &cur, i, &lv)?;
            }
        }

        // Rewrite and emit.
        let mut inst = x.inst;
        if inst.qp.is_virtual() {
            inst.qp = Pr(st.map[&(2, inst.qp.0)]);
        }
        inst.op.map_regs(|r, _| match virt_key(r) {
            Some(k) => phys_reg(k.0, st.map[&k]),
            None => r,
        });
        st.out.push(AllocInst { inst, src: Some(i) });

        st.release_dead(&cur, i, &lv);
    }

    debug_assert!(st.out.iter().all(|a| {
        let mut clean = !a.inst.qp.is_virtual();
        a.inst.op.visit_regs(|r, _| clean &= virt_key(r).is_none());
        clean
    }));
    Some(st.out)
}

#[cfg(test)]
mod tests {
    use super::super::eval;
    use super::*;
    use crate::state::{guest_gpr, GR_POOL, GR_SCRATCH, NUM_POOL};
    use ipf::inst::Src;
    use ipf::regs::R0;

    fn lift(ops: Vec<ipf::Inst>) -> Vec<IrInst> {
        ops.into_iter().map(|inst| IrInst::new(inst, 0)).collect()
    }

    /// Runs an allocated instruction stream on the reference evaluator.
    fn run(allocd: &[AllocInst]) -> eval::Outcome {
        let insts: Vec<ipf::Inst> = allocd.iter().map(|a| a.inst).collect();
        eval::run(&insts, 1)
    }

    #[test]
    fn allocates_within_pool_without_spills() {
        let a = Gr(300);
        let b = Gr(301);
        let ir = lift(vec![
            ipf::Inst::new(Op::Add {
                d: a,
                a: Src::Imm(5),
                b: R0,
            }),
            ipf::Inst::new(Op::Add {
                d: b,
                a: Src::Imm(7),
                b: R0,
            }),
            ipf::Inst::new(Op::Add {
                d: guest_gpr(0),
                a: Src::Reg(a),
                b,
            }),
        ]);
        let allocd = allocate(&ir).expect("allocation succeeds");
        assert_eq!(allocd.len(), 3, "no spill traffic");
        assert_eq!(run(&allocd).end.gr[guest_gpr(0).phys()], (12, false));
    }

    #[test]
    fn spills_and_reloads_under_pressure() {
        // Define more simultaneously-live values than the GR pool
        // (pool + scratch bank minus the spill pointer) can hold, then
        // consume them all: the allocator must spill and reload, and
        // the evaluated result must match the unrenamed semantics.
        let pool = (GR_POOL + NUM_POOL - GR_SCRATCH - 1) as usize;
        let n = pool + 4;
        let mut ops: Vec<ipf::Inst> = Vec::new();
        for k in 0..n {
            ops.push(ipf::Inst::new(Op::Add {
                d: Gr(300 + k as u16),
                a: Src::Imm(1 + k as i64),
                b: R0,
            }));
        }
        // Sum them into the guest register in definition order.
        ops.push(ipf::Inst::new(Op::Add {
            d: guest_gpr(0),
            a: Src::Imm(0),
            b: R0,
        }));
        for k in 0..n {
            ops.push(ipf::Inst::new(Op::Add {
                d: guest_gpr(0),
                a: Src::Reg(guest_gpr(0)),
                b: Gr(300 + k as u16),
            }));
        }
        let ir = lift(ops);
        let allocd = allocate(&ir).expect("spill path succeeds");
        assert!(
            allocd.iter().any(|a| a.src.is_none()),
            "pressure actually forced spill traffic"
        );
        let out = run(&allocd);
        let expect: u64 = (1..=n as u64).sum();
        assert_eq!(
            out.end.gr[guest_gpr(0).phys()],
            (expect, false),
            "spilled values survive"
        );
        assert!(out.events.is_empty(), "nothing faults or leaves");
        for &(addr, _, _) in &out.stores {
            assert!(
                (layout::SPILL_BASE..layout::SPILL_BASE + layout::SPILL_SLOTS * 8).contains(&addr),
                "spills stay inside the reserved slot area"
            );
        }
    }

    #[test]
    fn fails_cleanly_when_predicates_exhaust() {
        // More simultaneously-live predicates than the pool: no spill
        // path for the P class, so allocation must fail (template
        // fallback), not panic.
        let n = state::NUM_PR_POOL as usize + 2;
        let mut ops: Vec<ipf::Inst> = Vec::new();
        for k in 0..n {
            ops.push(ipf::Inst::new(Op::Cmp {
                rel: ipf::inst::CmpRel::Eq,
                pt: Pr(500 + k as u16),
                pf: P0,
                a: Src::Reg(guest_gpr(0)),
                b: R0,
            }));
        }
        for k in 0..n {
            ops.push(ipf::Inst::pred(
                Pr(500 + k as u16),
                Op::Add {
                    d: guest_gpr(1),
                    a: Src::Imm(k as i64),
                    b: R0,
                },
            ));
        }
        assert!(allocate(&lift(ops)).is_none());
    }
}
