//! The IPF bundler/assembler.
//!
//! Turns a linear instruction stream (with stop requests and labels)
//! into template-conformant bundles, patching label targets to bundle
//! addresses — absolute ones at a given base, or offsets in code that
//! is placed later ([`Relocatable`]). Used by both the translator's
//! cold/hot backends and the workloads' native-code generator.

use crate::bundle::{Bundle, SlotKind, Template};
use crate::inst::{Inst, Op, Reg, Target, Unit};
use crate::regs::P0;

/// A label naming a (future) bundle address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Label(pub u32);

#[derive(Clone, Debug)]
enum Item {
    Inst { inst: Inst, stop_after: bool },
    Bind(Label),
}

/// Where each pushed instruction landed after bundling: indexed by push
/// order, `(bundle_index, slot)`.
pub type Placements = Vec<(usize, u8)>;

/// The resolved address of every label of a [`CodeBuilder`], indexed by
/// the label (labels are dense small integers, so this is an array).
#[derive(Clone, PartialEq, Debug)]
pub struct LabelAddrs(pub(crate) Vec<u64>);

impl LabelAddrs {
    /// Address of a label that was allocated but never bound.
    const UNBOUND: u64 = u64::MAX;
}

impl std::ops::Index<Label> for LabelAddrs {
    type Output = u64;

    /// # Panics
    ///
    /// Panics if `label` was never bound.
    fn index(&self, label: Label) -> &u64 {
        let addr = &self.0[label.0 as usize];
        assert_ne!(*addr, Self::UNBOUND, "unbound label L{}", label.0);
        addr
    }
}

/// Assembled code that has no address yet: the bundles as they come
/// out at base 0, plus the list of slots whose branch target came from
/// a label. Moving the code somewhere is adding that address to exactly
/// those targets (and to the label offsets) — an absolute target the
/// program was given stays what it was, wherever it points.
/// [`crate::machine::CodeArena::install`] decides where, so code is
/// generated once however the arena's free list looks.
#[derive(Clone, Debug)]
pub struct Relocatable {
    pub(crate) bundles: Vec<Bundle>,
    /// `(bundle index, slot)` of every label-derived target.
    pub(crate) label_slots: Vec<(u32, u8)>,
    /// Every label's byte offset from the first bundle.
    pub labels: LabelAddrs,
    /// Where each pushed instruction landed.
    pub placements: Placements,
}

impl Relocatable {
    /// Number of bundles.
    pub fn len(&self) -> usize {
        self.bundles.len()
    }

    /// True if there are no bundles.
    pub fn is_empty(&self) -> bool {
        self.bundles.is_empty()
    }

    /// The bundles as assembled at base 0.
    pub fn bundles(&self) -> &[Bundle] {
        &self.bundles
    }

    /// The code as it reads at `base` — bundles and label addresses,
    /// equal to what assembling at `base` would have given.
    pub fn at(mut self, base: u64) -> (Vec<Bundle>, LabelAddrs) {
        for &(bundle, slot) in &self.label_slots {
            let op = &mut self.bundles[bundle as usize].slots[slot as usize].op;
            if let Some(Target::Abs(offset)) = op.target() {
                op.set_target(Target::Abs(base + offset));
            }
        }
        for addr in &mut self.labels.0 {
            if *addr != LabelAddrs::UNBOUND {
                *addr += base;
            }
        }
        (self.bundles, self.labels)
    }
}

/// Builds bundles from a stream of instructions, stops, and labels.
///
/// Branch targets are always bundle-aligned (as on hardware): binding a
/// label closes the current bundle.
#[derive(Debug, Default)]
pub struct CodeBuilder {
    items: Vec<Item>,
    next_label: u32,
}

impl CodeBuilder {
    /// An empty builder.
    pub fn new() -> CodeBuilder {
        CodeBuilder::default()
    }

    /// Allocates a fresh label.
    pub fn label(&mut self) -> Label {
        let l = Label(self.next_label);
        self.next_label += 1;
        l
    }

    /// Binds `label` here (forces a new bundle).
    pub fn bind(&mut self, label: Label) {
        self.items.push(Item::Bind(label));
    }

    /// Appends an unpredicated instruction.
    pub fn push(&mut self, op: Op) {
        self.items.push(Item::Inst {
            inst: Inst::new(op),
            stop_after: false,
        });
    }

    /// Appends a predicated instruction.
    pub fn push_pred(&mut self, qp: crate::regs::Pr, op: Op) {
        self.items.push(Item::Inst {
            inst: Inst::pred(qp, op),
            stop_after: false,
        });
    }

    /// Appends a full instruction.
    pub fn push_inst(&mut self, inst: Inst) {
        self.items.push(Item::Inst {
            inst,
            stop_after: false,
        });
    }

    /// Requests a stop bit (`;;`) after the most recent instruction.
    pub fn stop(&mut self) {
        if let Some(Item::Inst { stop_after, .. }) = self.items.last_mut() {
            *stop_after = true;
        }
    }

    /// Number of instructions queued (excluding label binds).
    pub fn len(&self) -> usize {
        self.items
            .iter()
            .filter(|i| matches!(i, Item::Inst { .. }))
            .count()
    }

    /// True if no instructions are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Assembles into bundles based at `base`, resolving labels.
    ///
    /// Returns the bundles and the resolved address of every label.
    ///
    /// # Panics
    ///
    /// Panics if a referenced label was never bound.
    pub fn assemble(&self, base: u64) -> (Vec<Bundle>, LabelAddrs) {
        self.assemble_relocatable().at(base)
    }

    /// Assembles into position-independent code (see [`Relocatable`]),
    /// which also says where each pushed instruction landed — the
    /// translator's recovery maps need this.
    ///
    /// # Panics
    ///
    /// Panics if a referenced label was never bound.
    pub fn assemble_relocatable(&self) -> Relocatable {
        let mut bundles: Vec<Bundle> = Vec::with_capacity(self.items.len() / 2 + 1);
        let mut packer = Packer::new();
        let mut labels = LabelAddrs(vec![LabelAddrs::UNBOUND; self.next_label as usize]);
        let offset_of = |idx: usize| idx as u64 * Bundle::SIZE;
        let mut pending_binds: Vec<Label> = Vec::new();
        let mut seq = 0usize;

        for item in &self.items {
            match item {
                Item::Bind(l) => {
                    packer.flush(&mut bundles);
                    pending_binds.push(*l);
                }
                Item::Inst { inst, stop_after } => {
                    // A binding lands on the *next* bundle started.
                    debug_assert!(pending_binds.is_empty() || !packer.has_partial());
                    for l in pending_binds.drain(..) {
                        labels.0[l.0 as usize] = offset_of(bundles.len());
                    }
                    packer.add_tracked(*inst, *stop_after, seq, &mut bundles);
                    seq += 1;
                }
            }
        }
        packer.flush(&mut bundles);
        // Trailing binds point one past the end.
        for l in pending_binds.drain(..) {
            labels.0[l.0 as usize] = offset_of(bundles.len());
        }

        // Patch label targets, remembering which slots they are.
        let mut label_slots = Vec::new();
        for (idx, b) in bundles.iter_mut().enumerate() {
            for (slot, s) in b.slots.iter_mut().enumerate() {
                if let Some(Target::Label(l)) = s.op.target() {
                    s.op.set_target(Target::Abs(labels[Label(l)]));
                    label_slots.push((idx as u32, slot as u8));
                }
            }
        }
        let mut placements: Placements = vec![(usize::MAX, 0); seq];
        for p in packer.placements.drain(..) {
            placements[p.0] = (p.1, p.2);
        }
        Relocatable {
            bundles,
            label_slots,
            labels,
            placements,
        }
    }
}

/// The bundle a packer has open, as far as what can still go into it:
/// the templates still possible for the slots filled so far. This is
/// the one definition of which template takes which unit where —
/// [`CodeBuilder`]'s packer places every instruction through it, and a
/// scheduler that orders code for the packer asks it the same
/// questions, so the two cannot disagree about where a `nop` goes.
///
/// An op that does not [`fit`](BundleCursor::fits) the open bundle
/// closes it, its free slots filled with `nop`s, and starts the next.
/// An op that cannot lead a bundle (I- or F-type, or a `movl`) goes
/// after a `nop.m`; a `movl` takes the last two slots of an MLX bundle,
/// the second of them a `nop` placeholder.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct BundleCursor {
    /// Templates consistent with the filled slots, a bit per entry of
    /// [`Template::all`] (lowest bit = most preferred).
    candidates: u16,
    /// Slots filled, padding included.
    len: u8,
}

impl BundleCursor {
    /// Every template, as a candidate mask.
    const ALL: u16 = (1 << Template::all().len()) - 1;

    /// No bundle open.
    pub fn new() -> BundleCursor {
        BundleCursor::default()
    }

    /// True if no bundle is open.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True once the open bundle has no slot left for another op.
    pub fn is_full(&self) -> bool {
        self.len == 3
    }

    /// Whether an op of `unit` takes the next slot of the open bundle
    /// as it is — no `nop` before it, the bundle not closed first: some
    /// template still possible accepts `unit` in that slot. An empty
    /// bundle is led by an M-, A- or B-type op.
    pub fn fits(&self, unit: Unit) -> bool {
        let candidates = if self.is_empty() {
            Self::ALL
        } else {
            self.candidates
        };
        !self.is_full() && candidates & Self::accepting(self.len as usize, unit) != 0
    }

    /// Puts an op of `unit` into the open bundle, opening one if none
    /// is; returns whether a `nop.m` went in before it (an op that
    /// cannot lead a bundle).
    ///
    /// # Panics
    ///
    /// Panics if a bundle is open and `unit` does not
    /// [`fit`](BundleCursor::fits) it.
    pub fn push(&mut self, unit: Unit) -> bool {
        let mut padded = false;
        if self.is_empty() {
            self.candidates = Self::ALL;
            if !self.fits(unit) {
                self.candidates &= Self::accepting(0, Unit::M);
                self.len = 1;
                padded = true;
            }
        }
        self.candidates &= Self::accepting(self.len as usize, unit);
        assert!(
            self.candidates != 0,
            "no template accepts unit {unit:?} in slot {}",
            self.len
        );
        // A `movl` also takes the X slot after it.
        self.len += if unit == Unit::L { 2 } else { 1 };
        padded
    }

    /// Closes the open bundle, returning the template it gets: the
    /// preferred one still possible. `None` if no bundle is open. Its
    /// free slots are `nop`s.
    pub fn close(&mut self) -> Option<Template> {
        if self.is_empty() {
            return None;
        }
        let template = Template::all()[self.candidates.trailing_zeros() as usize];
        *self = BundleCursor::new();
        Some(template)
    }

    /// Per slot and unit (`Unit as usize`), the templates that accept
    /// that unit in that slot, as a candidate mask.
    const ACCEPTING: [[u16; 6]; 3] = {
        let units = [Unit::M, Unit::I, Unit::F, Unit::B, Unit::L, Unit::A];
        let mut table = [[0; 6]; 3];
        let mut slot = 0;
        while slot < 3 {
            let mut u = 0;
            while u < units.len() {
                let mut t = 0;
                while t < Template::all().len() {
                    if Template::all()[t].slots()[slot].accepts(units[u]) {
                        table[slot][units[u] as usize] |= 1 << t;
                    }
                    t += 1;
                }
                u += 1;
            }
            slot += 1;
        }
        table
    };

    /// The templates that accept `unit` in slot `slot`, as a candidate
    /// mask.
    fn accepting(slot: usize, unit: Unit) -> u16 {
        Self::ACCEPTING[slot][unit as usize]
    }
}

/// The rule that cuts an op stream into issue groups: an op starts a
/// new group if it reads or writes a register the open group already
/// writes (its qualifying predicate included), and a branch ends the
/// group it closes. Both translation backends place stops by it. The
/// open group's writes live in one buffer reused across ops, so
/// placing an op allocates nothing once the buffer has grown.
#[derive(Clone, Debug, Default)]
pub struct StopRule {
    /// Registers written since the last stop.
    defs: Vec<Reg>,
}

impl StopRule {
    /// No group open.
    pub fn new() -> StopRule {
        StopRule::default()
    }

    /// Places `inst` after the ops already placed: whether a stop goes
    /// before it (it depends on the open group) and whether one goes
    /// after it (it is a branch).
    #[inline]
    pub fn place(&mut self, inst: &Inst) -> (bool, bool) {
        let defs = &self.defs;
        let mut before = defs.contains(&Reg::P(inst.qp));
        inst.op.visit_regs(|r, _| before |= defs.contains(&r));
        if before {
            self.defs.clear();
        }
        inst.op.visit_regs(|r, is_def| {
            if is_def {
                self.defs.push(r);
            }
        });
        let after = inst.op.is_branch();
        if after {
            self.defs.clear();
        }
        (before, after)
    }

    /// Forgets the open group: the next op starts a fresh one (a bound
    /// label begins a new bundle).
    pub fn reset(&mut self) {
        self.defs.clear();
    }
}

/// Greedy template packer.
struct Packer {
    cursor: BundleCursor,
    placed: Vec<(Inst, bool, Option<usize>)>,
    /// Final placements: (seq, bundle_index, slot).
    placements: Vec<(usize, usize, u8)>,
    cur_seq: Option<usize>,
}

impl Packer {
    fn new() -> Packer {
        Packer {
            cursor: BundleCursor::new(),
            placed: Vec::new(),
            placements: Vec::new(),
            cur_seq: None,
        }
    }

    fn add_tracked(&mut self, inst: Inst, stop_after: bool, seq: usize, out: &mut Vec<Bundle>) {
        self.cur_seq = Some(seq);
        self.add(inst, stop_after, out);
        self.cur_seq = None;
    }

    fn has_partial(&self) -> bool {
        !self.cursor.is_empty()
    }

    fn add(&mut self, inst: Inst, stop_after: bool, out: &mut Vec<Bundle>) {
        let unit = inst.op.unit();
        if !self.cursor.fits(unit) {
            self.flush(out);
        }
        if self.cursor.push(unit) {
            self.placed
                .push((Inst::new(Op::Nop { unit: Unit::M }), false, None));
        }
        if unit == Unit::L {
            // The X placeholder slot carries the stop if requested.
            self.placed.push((inst, false, self.cur_seq));
            self.placed
                .push((Inst::new(Op::Nop { unit: Unit::I }), stop_after, None));
        } else {
            self.placed.push((inst, stop_after, self.cur_seq));
        }
        if self.cursor.is_full() {
            self.flush(out);
        }
    }

    fn flush(&mut self, out: &mut Vec<Bundle>) {
        let Some(template) = self.cursor.close() else {
            return;
        };
        let pattern = template.slots();
        let mut slots = [
            Inst::new(Op::Nop { unit: Unit::M }),
            Inst::new(Op::Nop { unit: Unit::I }),
            Inst::new(Op::Nop { unit: Unit::I }),
        ];
        let mut stops = [false; 3];
        let bundle_idx = out.len();
        for (i, (inst, stop, seq)) in self.placed.drain(..).enumerate() {
            slots[i] = inst;
            stops[i] = stop;
            if let Some(s) = seq {
                self.placements.push((s, bundle_idx, i as u8));
            }
        }
        // Fill remaining slots with unit-appropriate nops.
        for i in 0..3 {
            if matches!(slots[i].op, Op::Nop { .. }) {
                let unit = match pattern[i] {
                    SlotKind::M => Unit::M,
                    SlotKind::I | SlotKind::L | SlotKind::X => Unit::I,
                    SlotKind::F => Unit::F,
                    SlotKind::B => Unit::B,
                };
                slots[i] = Inst {
                    qp: P0,
                    op: Op::Nop { unit },
                };
            }
        }
        out.push(Bundle {
            template,
            slots,
            stops,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{CmpRel, FmaKind, ShiftKind, Src};
    use crate::regs::*;

    #[test]
    fn packs_alu_run_into_bundles() {
        let mut cb = CodeBuilder::new();
        for i in 0..6u16 {
            cb.push(Op::Add {
                d: Gr(32 + i),
                a: Src::Imm(i as i64),
                b: R0,
            });
        }
        let (bundles, _) = cb.assemble(0x1000);
        assert_eq!(bundles.len(), 2, "six A-type ops fit two bundles");
    }

    #[test]
    fn branch_goes_to_b_slot() {
        let mut cb = CodeBuilder::new();
        let l = cb.label();
        cb.bind(l);
        cb.push(Op::Add {
            d: Gr(32),
            a: Src::Imm(1),
            b: Gr(32),
        });
        cb.push(Op::Br {
            target: Target::Label(l.0),
        });
        let (bundles, labels) = cb.assemble(0x1000);
        assert_eq!(labels[l], 0x1000);
        let last = bundles.last().unwrap();
        // Branch occupies a B slot and targets the first bundle.
        let br = last
            .slots
            .iter()
            .find(|s| s.op.is_branch())
            .expect("branch placed");
        assert_eq!(br.op.target(), Some(Target::Abs(0x1000)));
    }

    #[test]
    fn label_binding_is_bundle_aligned() {
        let mut cb = CodeBuilder::new();
        cb.push(Op::Add {
            d: Gr(32),
            a: Src::Imm(0),
            b: R0,
        });
        let l = cb.label();
        cb.bind(l); // closes the partial bundle
        cb.push(Op::Add {
            d: Gr(33),
            a: Src::Imm(0),
            b: R0,
        });
        let (bundles, labels) = cb.assemble(0);
        assert_eq!(bundles.len(), 2);
        assert_eq!(labels[l], 16);
    }

    #[test]
    fn movl_uses_mlx() {
        let mut cb = CodeBuilder::new();
        cb.push(Op::Movl {
            d: Gr(40),
            imm: 0xDEAD_BEEF_0000_1111,
        });
        let (bundles, _) = cb.assemble(0);
        assert_eq!(bundles.len(), 1);
        assert_eq!(bundles[0].template, Template::Mlx);
        assert!(matches!(bundles[0].slots[1].op, Op::Movl { .. }));
    }

    #[test]
    fn stop_bits_recorded() {
        let mut cb = CodeBuilder::new();
        cb.push(Op::Add {
            d: Gr(32),
            a: Src::Imm(1),
            b: R0,
        });
        cb.stop();
        cb.push(Op::Add {
            d: Gr(33),
            a: Src::Imm(2),
            b: Gr(32),
        });
        let (bundles, _) = cb.assemble(0);
        assert!(bundles[0].stops[0]);
    }

    #[test]
    fn fp_and_cmp_pack() {
        let mut cb = CodeBuilder::new();
        cb.push(Op::Cmp {
            rel: CmpRel::Eq,
            pt: Pr(1),
            pf: Pr(2),
            a: Src::Reg(Gr(32)),
            b: Gr(33),
        });
        cb.push(Op::Fma {
            kind: FmaKind::Fma,
            d: Fr(32),
            a: Fr(8),
            b: Fr(9),
            c: F0,
        });
        cb.push(Op::Ld {
            sz: 8,
            d: Gr(34),
            addr: Gr(35),
            spec: false,
        });
        let (bundles, _) = cb.assemble(0);
        // All three must be placed (template shuffling may take 1-2
        // bundles); count non-nop slots.
        let placed: usize = bundles
            .iter()
            .flat_map(|b| b.slots.iter())
            .filter(|s| !matches!(s.op, Op::Nop { .. }))
            .count();
        assert_eq!(placed, 3);
    }

    /// Over seeded random unit sequences, driving a [`BundleCursor`] by
    /// hand predicts the packer's output exactly: which template every
    /// bundle gets, where each instruction lands, where every padding
    /// and closing `nop` goes — and every bundle conforms to its
    /// template.
    #[test]
    fn the_cursor_predicts_every_flush_and_nop_of_the_packer() {
        let op_of = |unit: Unit, k: u16| match unit {
            Unit::M => Op::Ld {
                sz: 8,
                d: Gr(32 + k),
                addr: Gr(100),
                spec: false,
            },
            Unit::I => Op::Shift {
                kind: ShiftKind::Shl,
                d: Gr(32 + k),
                a: Gr(100),
                count: Src::Imm(3),
            },
            Unit::A => Op::Add {
                d: Gr(32 + k),
                a: Src::Imm(1),
                b: Gr(100),
            },
            Unit::F => Op::Fma {
                kind: FmaKind::Fma,
                d: Fr(32 + k),
                a: Fr(8),
                b: Fr(9),
                c: F0,
            },
            Unit::B => Op::Br {
                target: Target::Abs(0x8000),
            },
            Unit::L => Op::Movl {
                d: Gr(32 + k),
                imm: 1 << 40,
            },
        };
        let units = [Unit::M, Unit::I, Unit::A, Unit::F, Unit::B, Unit::L];
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        for _ in 0..400 {
            let len = 1 + next(30) as usize;
            let seq: Vec<Unit> = (0..len).map(|_| units[next(6) as usize]).collect();
            let mut cb = CodeBuilder::new();
            for (k, &unit) in seq.iter().enumerate() {
                cb.push(op_of(unit, k as u16));
                if next(3) == 0 {
                    cb.stop();
                }
            }
            let code = cb.assemble_relocatable();

            // The prediction: `None` is a nop, `Some(k)` the k-th op.
            let mut want: Vec<(Template, Vec<Option<usize>>)> = Vec::new();
            let mut cursor = BundleCursor::new();
            let mut open: Vec<Option<usize>> = Vec::new();
            let mut close = |cursor: &mut BundleCursor, open: &mut Vec<Option<usize>>| {
                if let Some(t) = cursor.close() {
                    open.resize(3, None);
                    want.push((t, std::mem::take(open)));
                }
            };
            for (k, &unit) in seq.iter().enumerate() {
                if !cursor.fits(unit) {
                    close(&mut cursor, &mut open);
                }
                if cursor.push(unit) {
                    open.push(None);
                }
                open.push(Some(k));
                if unit == Unit::L {
                    open.push(None);
                }
                if cursor.is_full() {
                    close(&mut cursor, &mut open);
                }
            }
            close(&mut cursor, &mut open);

            let got: Vec<(Template, Vec<Option<usize>>)> = code
                .bundles()
                .iter()
                .enumerate()
                .map(|(b, bundle)| {
                    let slots = (0..3)
                        .map(|s| code.placements.iter().position(|&p| p == (b, s as u8)))
                        .collect();
                    (bundle.template, slots)
                })
                .collect();
            assert_eq!(got, want, "units {seq:?}");
            for bundle in code.bundles() {
                for (kind, inst) in bundle.template.slots().iter().zip(&bundle.slots) {
                    let placeholder = *kind == SlotKind::X && matches!(inst.op, Op::Nop { .. });
                    assert!(
                        kind.accepts(inst.op.unit()) || placeholder,
                        "{bundle} from units {seq:?}"
                    );
                }
            }
        }
    }
}
