//! The cold backend: lowers template IL to machine code immediately —
//! a linear-scan allocation of virtual registers onto the template
//! scratch banks, dependence-driven stop bits, and bundling. This is
//! the "fast, with minimal optimizations" phase of the paper.

use crate::state;
use crate::templates::{IlItem, Sink};
use ipf::asm::{CodeBuilder, Label, StopRule};
use ipf::inst::{Reg, Target};
use ipf::regs::{Fr, Gr, Pr, VIRT_BASE};
use std::collections::VecDeque;

/// Lowering failure (template exceeded a scratch bank — falls back to
/// single-step interpretation).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LowerError(pub &'static str);

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cold lowering failed: {}", self.0)
    }
}

impl std::error::Error for LowerError {}

/// No physical register / never referenced.
const NONE: u16 = u16::MAX;

/// One virtual register's allocation state.
#[derive(Clone, Copy)]
struct Virt {
    /// Index of the last sink item that references it.
    last_ref: u32,
    /// The scratch register it currently lives in, or [`NONE`].
    phys: u16,
}

/// One scratch bank. A sink numbers its virtuals densely from
/// [`VIRT_BASE`], so the virtual -> state map is an array.
struct Bank {
    /// Free scratch registers, reused first-in first-out: a freshly
    /// freed register goes to the back, so new allocations avoid false
    /// WAW dependences (fewer stop bits). The order is a contract — it
    /// decides every physical register number and therefore every stop
    /// bit of cold code.
    free: VecDeque<u16>,
    virts: Vec<Virt>,
}

impl Bank {
    fn new(base: u16, count: u16, virtuals: u16) -> Bank {
        let unseen = Virt {
            last_ref: 0,
            phys: NONE,
        };
        Bank {
            free: (base..base + count).collect(),
            virts: vec![unseen; virtuals as usize],
        }
    }

    fn virt(&mut self, v: u16) -> &mut Virt {
        &mut self.virts[(v - VIRT_BASE) as usize]
    }

    fn get(&mut self, v: u16, what: &'static str) -> Result<u16, LowerError> {
        if self.virt(v).phys == NONE {
            self.virt(v).phys = self.free.pop_front().ok_or(LowerError(what))?;
        }
        Ok(self.virt(v).phys)
    }

    /// Frees `v`'s register if item `idx` was its last reference.
    fn release_if_dead(&mut self, v: u16, idx: usize) {
        let virt = *self.virt(v);
        if virt.last_ref == idx as u32 && virt.phys != NONE {
            self.free.push_back(virt.phys);
            self.virt(v).phys = NONE;
        }
    }
}

/// The three scratch banks of one lowering pass.
struct Banks {
    gr: Bank,
    fr: Bank,
    pr: Bank,
}

impl Banks {
    /// The bank and virtual number of `reg`, if it is a virtual.
    fn of(&mut self, reg: Reg) -> Option<(&mut Bank, u16)> {
        match reg {
            Reg::G(r) if r.is_virtual() => Some((&mut self.gr, r.0)),
            Reg::F(r) if r.is_virtual() => Some((&mut self.fr, r.0)),
            Reg::P(r) if r.is_virtual() => Some((&mut self.pr, r.0)),
            _ => None,
        }
    }
}

/// Lowers the sink's items into `cb`, mapping template-local labels to
/// fresh `CodeBuilder` labels (returned so callers can reference them).
///
/// # Errors
///
/// [`LowerError`] if a template needs more live virtual registers than a
/// scratch bank holds.
pub fn lower(sink: &Sink, cb: &mut CodeBuilder) -> Result<Vec<Label>, LowerError> {
    // Pre-create labels for template-local control flow.
    let labels: Vec<Label> = (0..sink.label_count()).map(|_| cb.label()).collect();

    let [vg, vf, vp] = sink.virtual_counts();
    let mut banks = Banks {
        gr: Bank::new(state::GR_SCRATCH, state::NUM_SCRATCH, vg),
        fr: Bank::new(state::FR_SCRATCH, state::NUM_FR_SCRATCH, vf),
        pr: Bank::new(state::PR_SCRATCH, state::NUM_PR_SCRATCH, vp),
    };

    // Last reference index of every virtual register.
    for (idx, item) in sink.items.iter().enumerate() {
        if let IlItem::Inst(e) = item {
            let mut note = |reg: Reg| {
                if let Some((bank, v)) = banks.of(reg) {
                    bank.virt(v).last_ref = idx as u32;
                }
            };
            note(Reg::P(e.inst.qp));
            e.inst.op.visit_regs(|r, _| note(r));
        }
    }

    let mut stops = StopRule::new();

    for (idx, item) in sink.items.iter().enumerate() {
        match item {
            IlItem::Bind(l) => {
                cb.bind(labels[*l as usize]);
                stops.reset();
            }
            IlItem::Inst(e) => {
                let mut inst = e.inst;
                // Allocate virtuals.
                let mut err: Option<LowerError> = None;
                if inst.qp.is_virtual() {
                    match banks.pr.get(inst.qp.0, "predicate scratch exhausted") {
                        Ok(p) => inst.qp = Pr(p),
                        Err(e) => err = Some(e),
                    }
                }
                inst.op.map_regs(|r, _is_def| match r {
                    Reg::G(g) if g.is_virtual() => {
                        match banks.gr.get(g.0, "GR scratch exhausted") {
                            Ok(p) => Reg::G(Gr(p)),
                            Err(e) => {
                                err = Some(e);
                                Reg::G(Gr(state::GR_SCRATCH))
                            }
                        }
                    }
                    Reg::F(f) if f.is_virtual() => {
                        match banks.fr.get(f.0, "FR scratch exhausted") {
                            Ok(p) => Reg::F(Fr(p)),
                            Err(e) => {
                                err = Some(e);
                                Reg::F(Fr(state::FR_SCRATCH))
                            }
                        }
                    }
                    Reg::P(p) if p.is_virtual() => {
                        match banks.pr.get(p.0, "predicate scratch exhausted") {
                            Ok(ph) => Reg::P(Pr(ph)),
                            Err(e) => {
                                err = Some(e);
                                Reg::P(Pr(state::PR_SCRATCH))
                            }
                        }
                    }
                    other => other,
                });
                if let Some(e) = err {
                    return Err(e);
                }
                // Remap template-local label targets.
                if let Some(Target::Label(l)) = inst.op.target() {
                    inst.op.set_target(Target::Label(labels[l as usize].0));
                }

                let (stop_before, stop_after) = stops.place(&inst);
                if stop_before {
                    cb.stop();
                }
                cb.push_inst(inst);
                if let Some(tap) = e.meta.tap {
                    cb.tap(tap);
                }
                if stop_after {
                    cb.stop();
                }

                // Release virtuals whose last reference this was, in
                // operand order (the order they rejoin the FIFO).
                let mut release = |reg: Reg| {
                    if let Some((bank, v)) = banks.of(reg) {
                        bank.release_if_dead(v, idx);
                    }
                };
                release(Reg::P(e.inst.qp));
                e.inst.op.visit_regs(|r, _| release(r));
            }
        }
    }
    Ok(labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::templates::Sink;
    use ipf::inst::{CmpRel, FmaKind, Op, Src};
    use ipf::regs::R0;

    #[test]
    fn lowers_and_reuses_scratch() {
        let mut sink = Sink::new();
        // Create more virtuals than the scratch bank, but with short
        // lifetimes so reuse covers them.
        for i in 0..40 {
            let v = sink.vg();
            sink.emit(Op::Add {
                d: v,
                a: Src::Imm(i),
                b: R0,
            });
            sink.emit(Op::Add {
                d: state::guest_gpr(0),
                a: Src::Imm(0),
                b: v,
            });
        }
        let mut cb = CodeBuilder::new();
        lower(&sink, &mut cb).expect("fits");
        assert!(cb.len() >= 80);
    }

    #[test]
    fn stop_inserted_on_dependence() {
        let mut sink = Sink::new();
        let v = sink.vg();
        sink.emit(Op::Add {
            d: v,
            a: Src::Imm(1),
            b: R0,
        });
        sink.emit(Op::Add {
            d: state::guest_gpr(0),
            a: Src::Imm(0),
            b: v,
        });
        let mut cb = CodeBuilder::new();
        lower(&sink, &mut cb).unwrap();
        let (bundles, _) = cb.assemble(0);
        let stops: usize = bundles
            .iter()
            .map(|b| b.stops.iter().filter(|s| **s).count())
            .sum();
        assert!(stops >= 1, "dependence requires a stop");
    }

    #[test]
    fn predicate_pairs_release() {
        let mut sink = Sink::new();
        // Many compares; each pair dies immediately.
        for _ in 0..40 {
            let (pt, pf) = (sink.vp(), sink.vp());
            sink.emit(Op::Cmp {
                rel: CmpRel::Eq,
                pt,
                pf,
                a: Src::Imm(0),
                b: R0,
            });
            sink.emit_pred(
                pt,
                Op::Add {
                    d: state::guest_gpr(0),
                    a: Src::Imm(1),
                    b: R0,
                },
            );
        }
        let mut cb = CodeBuilder::new();
        lower(&sink, &mut cb).expect("predicates recycle");
    }

    /// The FIFO reuse order of each scratch bank is a contract: it
    /// decides every physical register and so every stop bit of cold
    /// code. Pinned on a sink whose overlapping lifetimes recycle each
    /// bank (16 GR, 24 FR, 15 PR) more than once, with releases of
    /// several virtuals at one instruction and out of allocation order.
    #[test]
    fn fifo_reuse_pins_registers_and_stop_bits() {
        let mut sink = Sink::new();
        let mut carried = sink.vg();
        sink.emit(Op::Add {
            d: carried,
            a: Src::Imm(0),
            b: R0,
        });
        let mut fcarried = sink.vf();
        sink.emit(Op::Fmerge {
            neg: false,
            d: fcarried,
            a: ipf::regs::F0,
            b: ipf::regs::F0,
        });
        for i in 0..14 {
            let (a, b) = (sink.vg(), sink.vg());
            sink.emit(Op::Add {
                d: a,
                a: Src::Imm(i),
                b: R0,
            });
            sink.emit(Op::Add {
                d: b,
                a: Src::Imm(i),
                b: carried,
            });
            // `b` and `carried` die here, `b` first (operand order).
            let next = sink.vg();
            sink.emit(Op::Add {
                d: next,
                a: Src::Reg(b),
                b: carried,
            });
            let (pt, pf) = (sink.vp(), sink.vp());
            // `pf` is never read: it dies at its definition.
            sink.emit(Op::Cmp {
                rel: CmpRel::Eq,
                pt,
                pf,
                a: Src::Reg(a),
                b: next,
            });
            let (f, g, h) = (sink.vf(), sink.vf(), sink.vf());
            sink.emit(Op::Fmerge {
                neg: false,
                d: f,
                a: fcarried,
                b: fcarried,
            });
            sink.emit_pred(
                pt,
                Op::Fmerge {
                    neg: false,
                    d: g,
                    a: f,
                    b: f,
                },
            );
            sink.emit(Op::Fma {
                kind: FmaKind::Fma,
                d: h,
                a: g,
                b: f,
                c: fcarried,
            });
            // `a` outlives `b`, which was allocated after it.
            sink.emit_pred(
                pt,
                Op::Add {
                    d: state::guest_gpr(0),
                    a: Src::Imm(1),
                    b: a,
                },
            );
            carried = next;
            fcarried = h;
        }
        let mut cb = CodeBuilder::new();
        lower(&sink, &mut cb).expect("short lifetimes fit every bank");
        let (bundles, _) = cb.assemble(0);
        let (mut grs, mut frs, mut prs, mut stops) = (vec![], vec![], vec![], vec![]);
        for (i, (inst, stop)) in bundles
            .iter()
            .flat_map(|b| b.slots.iter().zip(b.stops))
            .enumerate()
        {
            if stop {
                stops.push(i);
            }
            inst.op.visit_regs(|r, is_def| match r {
                Reg::G(g) if is_def && g.0 >= state::GR_SCRATCH => grs.push(g.0),
                Reg::F(f) if is_def => frs.push(f.0),
                Reg::P(p) if is_def => prs.push(p.0),
                _ => {}
            });
        }
        #[rustfmt::skip]
        assert_eq!(grs, [
            48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62, 63,
            50, 48, 49, 53, 51, 52, 56, 54, 55, 59, 57, 58, 62, 60, 61, 48,
            63, 50, 51, 49, 53, 54, 52, 56, 57, 55, 59,
        ]);
        #[rustfmt::skip]
        assert_eq!(frs, [
            40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55,
            56, 57, 58, 59, 60, 61, 62, 63, 42, 41, 40, 45, 44, 43, 48, 47,
            46, 51, 50, 49, 54, 53, 52, 57, 56, 55, 60,
        ]);
        #[rustfmt::skip]
        assert_eq!(prs, [
            1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
            2, 1, 4, 3, 6, 5, 8, 7, 10, 9, 12, 11, 14,
        ]);
        // Flat slot indices (bundle * 3 + slot) carrying a stop bit.
        #[rustfmt::skip]
        assert_eq!(stops, [
            2, 3, 4, 7, 10, 16, 17, 19, 22, 28, 29, 31, 34, 40, 41, 43, 46,
            52, 53, 55, 58, 64, 65, 67, 70, 76, 77, 79, 82, 88, 89, 91, 94,
            100, 101, 103, 106, 112, 113, 115, 118, 124, 125, 127, 130, 136,
            137, 139, 142, 148, 149, 151, 154, 160, 161, 163, 166,
        ]);
    }

    #[test]
    fn local_labels_map() {
        let mut sink = Sink::new();
        let l = sink.local_label();
        sink.bind(l);
        sink.emit(Op::Add {
            d: state::guest_gpr(0),
            a: Src::Imm(1),
            b: R0,
        });
        sink.emit(Op::Br {
            target: Target::Label(l),
        });
        let mut cb = CodeBuilder::new();
        lower(&sink, &mut cb).unwrap();
        let (bundles, _) = cb.assemble(0x1000);
        // The backward branch resolves inside the emitted code.
        let target = bundles
            .iter()
            .flat_map(|b| b.slots.iter())
            .find_map(|s| s.op.target());
        assert_eq!(target, Some(Target::Abs(0x1000)));
    }
}
