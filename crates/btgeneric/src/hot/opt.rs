//! Hot IR optimizations (paper §2 hot-phase list): guest-state
//! forwarding (register-value tracking and the one copy propagation),
//! the demanded-bits bypass of `zxt`s whose high bits nothing reads,
//! local value numbering (compound-address CSE and redundant-load
//! elimination), and one dead-code pass that also removes the EFLAGS
//! and guest-register writes nothing observes.

use super::ir::{is_state_prealloc, IrInst};
use super::liveness::{virt_key, VirtKey};
use crate::state::{Eflags, GR_GUEST};
use ipf::hash::{HashMap, HashSet};
use ipf::inst::{FXfer, Op, Reg, ShiftKind, Src};
use ipf::regs::{Gr, P0, R0};

/// Local value numbering over the trace. Pure integer ops (and loads,
/// versioned by the store count) with identical canonicalized operands
/// are deduplicated; uses are rewritten through a substitution map.
/// Returns, per op it leaves, that op's index before the pass.
pub(super) fn lvn(ils: &mut Vec<IrInst>) -> Vec<usize> {
    // Only virtuals with a single definition participate (deleting one
    // of several defs, or replacing uses with a later-redefined holder,
    // would be wrong).
    let single = single_defs(ils);
    let mut subst: HashMap<u16, Gr> = HashMap::default(); // virtual -> replacement
    let mut versions: HashMap<(u8, u16), u64> = HashMap::default();
    let mut mem_version: u64 = 0;
    // The op with its destination zeroed, the version of each source
    // (0 for a virtual: equal ops name the same registers) and, for a
    // load, the store count.
    let mut table: HashMap<(Op, [u64; 3], u64), Gr> = HashMap::default();
    let mut keep: Vec<bool> = vec![true; ils.len()];

    for (i, il) in ils.iter_mut().enumerate() {
        // Rewrite uses through the substitution map.
        il.inst.op.map_regs(|r, is_def| match r {
            Reg::G(g) if !is_def => Reg::G(subst.get(&g.0).copied().unwrap_or(g)),
            other => other,
        });

        let op = il.inst.op;
        let props = op.props();
        if props.store {
            mem_version += 1;
        }
        if props.branch {
            // A trace has one entry and every branch leaves it, so a
            // value computed before a branch still holds after it.
            continue;
        }
        // Bump versions of defined non-virtual registers.
        op.visit_regs(|r, is_def| {
            if let (true, Some(k)) = (is_def, phys_key(r)) {
                *versions.entry(k).or_default() += 1;
            }
        });

        if il.inst.qp != P0 || !props.pure {
            continue; // only unpredicated pure ops are LVN candidates
        }
        let Some(dest) = gr_def(&op) else { continue };
        if !single.contains(&dest.0) {
            continue;
        }
        let mut key_op = op;
        key_op.map_regs(|r, is_def| match r {
            Reg::G(_) if is_def => Reg::G(Gr(0)),
            other => other,
        });
        let mut srcs = [0u64; 3];
        let mut n = 0;
        op.visit_regs(|r, is_def| {
            if !is_def {
                srcs[n] = phys_key(r).map_or(0, |k| versions.get(&k).copied().unwrap_or(0));
                n += 1;
            }
        });
        let key = (key_op, srcs, if props.mem { mem_version } else { 0 });
        match table.get(&key) {
            Some(&holder) => {
                subst.insert(dest.0, holder);
                keep[i] = false;
            }
            None => {
                table.insert(key, dest);
            }
        }
    }
    retain(ils, &keep)
}

/// Keeps the ops of `irs` whose entry of `keep` is set; returns their
/// indices before.
fn retain(irs: &mut Vec<IrInst>, keep: &[bool]) -> Vec<usize> {
    let mut flags = keep.iter();
    irs.retain(|_| *flags.next().expect("one flag per op"));
    (0..keep.len()).filter(|&i| keep[i]).collect()
}

/// The version key of a physical general, FP or predicate register.
fn phys_key(r: Reg) -> Option<(u8, u16)> {
    match r {
        Reg::G(g) if !g.is_virtual() => Some((0, g.0)),
        Reg::F(f) if !f.is_virtual() => Some((1, f.0)),
        Reg::P(p) if !p.is_virtual() => Some((2, p.0)),
        _ => None,
    }
}

/// Virtual general registers with exactly one definition, that one
/// unpredicated: a fact learned at the definition holds at every later
/// use (a second definition would invalidate it, a predicated one only
/// merges into whatever the register held).
fn single_defs(irs: &[IrInst]) -> HashSet<u16> {
    let mut count: HashMap<u16, u32> = HashMap::default();
    let mut predicated: HashSet<u16> = HashSet::default();
    for x in irs {
        x.inst.op.visit_regs(|r, is_def| {
            if let (true, Reg::G(g)) = (is_def, r) {
                if g.is_virtual() {
                    *count.entry(g.0).or_default() += 1;
                    if x.inst.qp != P0 {
                        predicated.insert(g.0);
                    }
                }
            }
        });
    }
    count
        .into_iter()
        .filter(|&(v, n)| n == 1 && !predicated.contains(&v))
        .map(|(v, _)| v)
        .collect()
}

/// Index of the guest GPR home `g` is, if it is one.
fn home_of(g: Gr) -> Option<usize> {
    (GR_GUEST..GR_GUEST + 8)
        .contains(&g.0)
        .then(|| (g.0 - GR_GUEST) as usize)
}

/// The single general register `op` defines, if any.
fn gr_def(op: &Op) -> Option<Gr> {
    let mut def = None;
    op.visit_regs(|r, is_def| {
        if let (true, Reg::G(g)) = (is_def, r) {
            def = Some(g);
        }
    });
    def
}

/// What [`forward_state`] knows at one point of the trace.
struct Forwarding {
    /// Virtuals a fact may be learned about.
    single: HashSet<u16>,
    /// Per guest GPR home, the single-definition virtual or the other
    /// home last copied into it; any other def of the home, and any def
    /// of the home it names, clears it.
    alias: [Option<Gr>; 8],
    /// Per home, whether bits 63..32 are known zero. True on entry —
    /// the `state.rs` invariant every block boundary keeps — and
    /// re-derived from each def of the home after that, so a template
    /// may break the invariant between two of its own ops.
    home_clean: [bool; 8],
    /// Virtuals whose bits 63..32 are known zero.
    clean: HashSet<u16>,
    /// Virtual -> the register it is a copy of: a virtual, or a
    /// physical register (a template's snapshot of a home or of the
    /// EFLAGS home) until that register's next def.
    copy: HashMap<u16, Gr>,
}

impl Forwarding {
    /// The register a read of `g` resolves to: the reaching virtual of
    /// a home, the source of a copy, or `g` itself.
    fn resolve(&self, g: Gr) -> Gr {
        match home_of(g) {
            Some(h) => self.alias[h].unwrap_or(g),
            None => self.copy.get(&g.0).copied().unwrap_or(g),
        }
    }

    /// Whether bits 63..32 of `g` are known zero here.
    fn is_clean(&self, g: Gr) -> bool {
        match home_of(g) {
            Some(h) => self.home_clean[h],
            None => g.0 == 0 || self.clean.contains(&g.0),
        }
    }

    /// Whether `op` leaves bits 63..32 of its general-register result
    /// zero whatever its operands hold beyond what `is_clean` knows.
    /// Sums, differences and left shifts carry out of bit 31, and
    /// `sxt`, `ld8` and everything not listed are never clean.
    fn result_is_clean(&self, op: &Op) -> bool {
        let small = |imm: i64| (0..1i64 << 32).contains(&imm);
        let src_clean = |s: Src| match s {
            Src::Reg(r) => self.is_clean(r),
            Src::Imm(imm) => small(imm),
        };
        match *op {
            Op::Ld { sz, .. } => sz < 8,
            Op::Xt {
                signed: false,
                size,
                ..
            } => size <= 4,
            Op::Popcnt { .. } => true,
            Op::And { a, b, .. } => src_clean(a) || self.is_clean(b),
            Op::AndCm { a, .. } => src_clean(a),
            Op::Or { a, b, .. } | Op::Xor { a, b, .. } => src_clean(a) && self.is_clean(b),
            Op::Add {
                a: Src::Imm(imm),
                b,
                ..
            } => (b.0 == 0 && small(imm)) || (imm == 0 && self.is_clean(b)),
            Op::Extr {
                len, signed: false, ..
            } => len <= 32,
            Op::DepZ { pos, len, .. } => pos as u32 + len as u32 <= 32,
            Op::Dep {
                target, pos, len, ..
            } => self.is_clean(target) && pos as u32 + len as u32 <= 32,
            Op::Shift {
                kind: ShiftKind::Shl,
                ..
            } => false,
            Op::Shift { kind, a, count, .. } => {
                let out = kind == ShiftKind::ShrU && matches!(count, Src::Imm(n) if n >= 32);
                self.is_clean(a) || out
            }
            Op::Movl { imm, .. } => imm < 1 << 32,
            _ => false,
        }
    }
}

/// Guest-state forwarding (paper §2 "value tracking"; ROADMAP item 2,
/// first step). Templates talk to each other through the guest GPR
/// homes, so every one re-reads `r32`–`r39` and re-zero-extends what
/// the previous one already zero-extended, and the trace's critical
/// path runs through the homes. One forward walk rewrites every *read*
/// of a home to the register that was last copied into it — a virtual,
/// or another home (`mov edx, eax`, whose `zxt4` of a clean home the
/// walk has already made a copy) — turns every `zxt4` of a value whose
/// upper half is known zero into a copy, and reads through virtual
/// copies — of virtuals, and of physical registers not yet redefined
/// ([`dead_code`] then drops the copies nothing reads any more).
///
/// The home *writes* stay where the templates put them — the scheduler
/// keeps pinning them between their commit barriers — so precise state,
/// recovery maps and side-exit state are exactly what they were;
/// consumers just stop waiting for them.
///
/// Facts are only learned from the unpredicated def of a
/// single-definition virtual or an unpredicated home-to-home copy, and a
/// copy or alias naming a physical register is dropped at that
/// register's next def, predicated or not, so a replacement holds the
/// same value at the rewritten use as the register it replaces.
pub(super) fn forward_state(irs: &mut [IrInst]) {
    let mut st = Forwarding {
        single: single_defs(irs),
        alias: [None; 8],
        home_clean: [true; 8],
        clean: HashSet::default(),
        copy: HashMap::default(),
    };
    // Virtuals whose unpredicated def the walk has passed.
    let mut defined: HashSet<u16> = HashSet::default();
    for x in irs.iter_mut() {
        x.inst.op.map_regs(|r, is_def| match r {
            Reg::G(g) if !is_def => {
                let to = st.resolve(g);
                debug_assert!(
                    to == g || !to.is_virtual() || defined.contains(&to.0),
                    "{g} forwarded to {to}, defined later or under a predicate"
                );
                Reg::G(to)
            }
            _ => r,
        });
        if let Op::Xt {
            signed: false,
            d,
            a,
            size: 4,
        } = x.inst.op
        {
            if st.is_clean(a) {
                x.inst.op = Op::Add {
                    d,
                    a: Src::Imm(0),
                    b: a,
                };
            }
        }

        let op = x.inst.op;
        let Some(d) = gr_def(&op) else { continue };
        let unpredicated = x.inst.qp == P0;
        let result_clean = st.result_is_clean(&op);
        // The register `op` copies, when it can stand in for the copy:
        // a virtual a fact may rest on (already resolved to the head of
        // its copy chain) or, for a virtual snapshot or a copy between
        // two homes, a physical register until its next def.
        let copied = match op {
            Op::Add {
                a: Src::Imm(0),
                b: a,
                ..
            } if unpredicated => {
                let snapshot = d.is_virtual() && !a.is_virtual() && a.0 != 0;
                let home_to_home = home_of(d).is_some() && home_of(a).is_some() && a != d;
                (st.single.contains(&a.0) || snapshot || home_to_home).then_some(a)
            }
            _ => None,
        };
        if !d.is_virtual() {
            st.copy.retain(|_, from| *from != d);
            for alias in &mut st.alias {
                if *alias == Some(d) {
                    *alias = None;
                }
            }
        }
        if let Some(h) = home_of(d) {
            st.alias[h] = copied;
            st.home_clean[h] = result_clean && (unpredicated || st.home_clean[h]);
        } else if unpredicated && st.single.contains(&d.0) {
            if cfg!(debug_assertions) {
                defined.insert(d.0);
            }
            if result_clean {
                st.clean.insert(d.0);
            }
            if let Some(a) = copied {
                st.copy.insert(d.0, a);
            }
        }
    }
}

/// How many low bits of register `r` `op` reads to compute the low
/// `result` bits of what it defines: 64 — all of them — unless `op` is
/// one of the few whose low result bits depend on low operand bits
/// only. `constant` names the value of a virtual known to hold one.
fn read_width(op: &Op, r: Reg, result: u8, constant: impl Fn(Gr) -> Option<u64>) -> u8 {
    // The bits an `and` reads of one operand under a mask in the other.
    let masked = |mask: Option<u64>| match mask {
        Some(m) => {
            let low = if result >= 64 {
                m
            } else {
                m & ((1 << result) - 1)
            };
            64 - low.leading_zeros() as u8
        }
        None => result,
    };
    let is = |g: Gr| r == Reg::G(g);
    match *op {
        // A store of `sz` bytes reads that many of its value, all of
        // its address.
        Op::St { sz, addr, .. } if !is(addr) => 8 * sz,
        Op::Xt { size, .. } => 8 * size,
        Op::And { a, b, .. } => {
            let of_a = match a {
                Src::Imm(m) => Some(m as u64),
                Src::Reg(g) => constant(g),
            };
            let from_a = match a {
                Src::Reg(g) if is(g) => masked(constant(b)),
                _ => 0,
            };
            let from_b = if is(b) { masked(of_a) } else { 0 };
            from_a.max(from_b)
        }
        Op::Add { .. }
        | Op::Sub { .. }
        | Op::Or { .. }
        | Op::Xor { .. }
        | Op::AndCm { .. }
        | Op::Shladd { .. } => result,
        Op::Shift {
            kind: ShiftKind::Shl,
            count: Src::Imm(n),
            ..
        } => result.saturating_sub(n.clamp(0, 64) as u8),
        Op::Setf {
            kind: FXfer::Sig, ..
        }
        | Op::Getf {
            kind: FXfer::Sig, ..
        }
        | Op::Xma { high: false, .. } => result,
        _ => 64,
    }
}

/// Demanded bits (ROADMAP item 2(d)). A trace keeps every guest value
/// zero-extended, so a 32-bit chain runs `add`, then `zxt4`, then the
/// next op — yet most consumers read only the low bits the `zxt4` left
/// alone. One backward walk finds, per op, how many low bits of its
/// result anything reads: a store reads the bytes it stores, a `zxt`
/// or `sxt` of size k the low 8k bits, an `and` the bits under its
/// mask; an `add`, `sub`, `or`, `xor`, `andcm`, `shladd`, left shift
/// by an immediate, `setf.sig`, `xma.l` or `getf.sig` reads of its
/// operands only as many low bits as its own readers read of it; every
/// other use, and every physical register's value — a home, the
/// EFLAGS home, anything an exit or the trace end observes — reads all
/// 64. One forward walk then lets each use that reads at most the low
/// 8k bits of an unpredicated `Xt` of size k read the `Xt`'s source
/// instead, while neither has been redefined. The `Xt` itself stays —
/// a home write keeps its `zxt4` — and [`dead_code`] drops it once
/// nothing reads it. Returns whether any use was rewritten.
///
/// Every op then computes the same low bits of its result as before,
/// which are all the bits anything reads of it.
pub(super) fn demanded_bits(irs: &mut [IrInst]) -> bool {
    let single = single_defs(irs);
    let mut constants: HashMap<u16, u64> = HashMap::default();
    for x in irs.iter() {
        let value = match x.inst.op {
            Op::Add {
                d,
                a: Src::Imm(imm),
                b: R0,
            } => Some((d, imm as u64)),
            Op::Movl { d, imm } => Some((d, imm)),
            _ => None,
        };
        if let Some((d, imm)) = value.filter(|(d, _)| single.contains(&d.0)) {
            constants.insert(d.0, imm);
        }
    }
    let constant = |g: Gr| constants.get(&g.0).copied();
    // Backward: the low bits of each op's result that something reads.
    let mut need: HashMap<VirtKey, u8> = HashMap::default();
    let mut result = vec![64u8; irs.len()];
    for (i, x) in irs.iter().enumerate().rev() {
        let op = &x.inst.op;
        let mut bits = 0;
        op.visit_regs(|r, is_def| {
            if is_def && matches!(r, Reg::G(_) | Reg::F(_)) {
                bits = bits.max(virt_key(r).map_or(64, |k| need.get(&k).copied().unwrap_or(0)));
            }
        });
        result[i] = bits;
        if x.inst.qp == P0 {
            op.visit_regs(|r, is_def| {
                if let (true, Some(k)) = (is_def, virt_key(r)) {
                    need.remove(&k);
                }
            });
        }
        op.visit_regs(|r, is_def| {
            if let (false, Some(k)) = (is_def, virt_key(r)) {
                let w = read_width(op, r, bits, constant);
                let n = need.entry(k).or_default();
                *n = (*n).max(w);
            }
        });
    }
    // Forward: per register an unpredicated `Xt` defined and nothing
    // has redefined since, the `Xt`'s source and size.
    let mut narrow: HashMap<u16, (Gr, u8)> = HashMap::default();
    let mut changed = false;
    for (x, &bits) in irs.iter_mut().zip(&result) {
        let op = x.inst.op;
        x.inst.op.map_regs(|r, is_def| match r {
            Reg::G(g) if !is_def => match narrow.get(&g.0) {
                Some(&(src, size)) if read_width(&op, r, bits, constant) <= 8 * size => {
                    changed = true;
                    Reg::G(src)
                }
                _ => r,
            },
            _ => r,
        });
        x.inst.op.visit_regs(|r, is_def| {
            if let (true, Reg::G(d)) = (is_def, r) {
                narrow.retain(|&g, &mut (src, _)| g != d.0 && src != d);
            }
        });
        if let Op::Xt { d, a, size, .. } = x.inst.op {
            if x.inst.qp == P0 && a != d {
                narrow.insert(d.0, (a, size));
            }
        }
    }
    changed
}

/// Dead-code elimination, the paper's EFLAGS elimination and dead
/// guest-register writes included: one backward walk with one live set
/// of virtual registers, the eight guest GPR homes and the EFLAGS home
/// with its thunk (`Eflags::HOMES`). Returns, per op it leaves, that
/// op's index before the pass.
///
/// All homes are live at the trace end. An op stays if it stores,
/// branches, can fault or is a fence, if it defines architectural state
/// other than a home, or if it defines a live register; every other op
/// is deleted. For an op that stays, in order:
/// 1. an unpredicated def kills its register;
/// 2. a branch or an op that can fault makes all homes live — the
///    exit path and the recovery walk read all guest state;
/// 3. its qualifying predicate and its uses become live.
///
/// A predicated op kills nothing, so a write it may not make leaves the
/// one before it live; that is all a predicate asks of the pass.
pub(super) fn dead_code(irs: &mut Vec<IrInst>) -> Vec<usize> {
    // A home is keyed by its physical number, which no virtual shares.
    let key = |r: Reg| match r {
        Reg::G(g) if home_of(g).is_some() || Eflags::is_home(g) => Some((0, g.0)),
        _ => virt_key(r),
    };
    let homes = (GR_GUEST..GR_GUEST + 8)
        .map(|g| (0, g))
        .chain(Eflags::HOMES.map(|g| (0, g.0)));
    let mut live: HashSet<VirtKey> = homes.clone().collect();
    let mut keep = vec![false; irs.len()];
    for (i, x) in irs.iter().enumerate().rev() {
        let (op, qp) = (&x.inst.op, x.inst.qp);
        let props = op.props();
        let observes = props.branch || props.can_fault;
        let mut needed = observes || props.store || props.fence;
        op.visit_regs(|r, is_def| {
            if is_def {
                needed |= key(r).map_or(is_state_prealloc(r), |k| live.contains(&k));
            }
        });
        if !needed {
            continue;
        }
        keep[i] = true;
        if qp == P0 {
            op.visit_regs(|r, is_def| {
                if let (true, Some(k)) = (is_def, key(r)) {
                    live.remove(&k);
                }
            });
        }
        if observes {
            live.extend(homes.clone());
        }
        live.extend(key(Reg::P(qp)));
        op.visit_regs(|r, is_def| {
            if !is_def {
                live.extend(key(r));
            }
        });
    }
    retain(irs, &keep)
}

#[cfg(test)]
mod tests {
    use super::super::eval;
    use super::*;
    use crate::state::guest_gpr;
    use crate::templates::Sink;
    use ipf::regs::Pr;

    const EFLAGS: Gr = Eflags::HOMES[0];

    fn il(inst: ipf::Inst) -> IrInst {
        IrInst::new(inst, 0)
    }

    #[test]
    fn lvn_dedups_identical_computation() {
        let mut s = Sink::new();
        let (v1, v2) = (s.vg(), s.vg());
        let g = crate::state::guest_gpr(0);
        let mut ils = vec![
            il(ipf::Inst::new(Op::Add {
                d: v1,
                a: Src::Imm(8),
                b: g,
            })),
            il(ipf::Inst::new(Op::Add {
                d: v2,
                a: Src::Imm(8),
                b: g,
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
            il(ipf::Inst::new(Op::Add {
                d: v1,
                a: Src::Imm(8),
                b: g,
            })),
            il(ipf::Inst::new(Op::Add {
                d: g,
                a: Src::Imm(1),
                b: g,
            })), // g changes
            il(ipf::Inst::new(Op::Add {
                d: v2,
                a: Src::Imm(8),
                b: g,
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
                a: Src::Reg(v1),
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
                a: Src::Reg(v1),
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
            il(ipf::Inst::new(Op::Add {
                d: v1,
                a: Src::Imm(1),
                b: R0,
            })),
            il(ipf::Inst::new(Op::Add {
                d: v2,
                a: Src::Imm(2),
                b: R0,
            })), // dead
            il(ipf::Inst::new(Op::Add {
                d: g,
                a: Src::Imm(0),
                b: v1,
            })),
        ];
        dead_code(&mut ils);
        assert_eq!(ils.len(), 2);
    }

    #[test]
    fn dce_keeps_stores_and_guest_writes() {
        let mut s = Sink::new();
        let v1 = s.vg();
        let g = crate::state::guest_gpr(3);
        let mut ils = vec![
            il(ipf::Inst::new(Op::Add {
                d: v1,
                a: Src::Imm(1),
                b: R0,
            })),
            il(ipf::Inst::new(Op::St {
                sz: 4,
                addr: v1,
                val: g,
            })),
            il(ipf::Inst::new(Op::Add {
                d: g,
                a: Src::Imm(5),
                b: R0,
            })),
        ];
        dead_code(&mut ils);
        assert_eq!(ils.len(), 3);
    }

    // ---- forward_state ------------------------------------------------

    fn mov(d: Gr, a: Gr) -> ipf::Inst {
        ipf::Inst::new(Op::Add {
            d,
            a: Src::Imm(0),
            b: a,
        })
    }

    fn zxt(size: u8, d: Gr, a: Gr) -> ipf::Inst {
        ipf::Inst::new(Op::Xt {
            signed: false,
            d,
            a,
            size,
        })
    }

    fn st4(addr: Gr, val: Gr) -> ipf::Inst {
        ipf::Inst::new(Op::St { sz: 4, addr, val })
    }

    /// `forward_state` over `ops`, checked against them on the
    /// reference evaluator.
    fn forwarded(ops: &[ipf::Inst]) -> Vec<ipf::Inst> {
        let mut irs: Vec<IrInst> = ops.iter().map(|&i| il(i)).collect();
        forward_state(&mut irs);
        let out: Vec<ipf::Inst> = irs.iter().map(|x| x.inst).collect();
        eval::assert_preserves("forward_state", ops, &out, &Vec::from_iter(0..ops.len()));
        out
    }

    #[test]
    fn forwarding_keeps_the_zxt4_of_a_value_that_may_carry_past_bit_31() {
        let (eax, ecx) = (guest_gpr(0), guest_gpr(1));
        let (v, w) = (Gr(300), Gr(301));
        let unclean = [
            Op::Shladd {
                d: v,
                a: eax,
                count: 2,
                b: ecx,
            },
            Op::Add {
                d: v,
                a: Src::Reg(eax),
                b: ecx,
            },
            Op::Sub {
                d: v,
                a: Src::Reg(eax),
                b: ecx,
            },
            Op::Add {
                d: v,
                a: Src::Imm(-4),
                b: eax,
            },
            Op::Shift {
                kind: ShiftKind::Shl,
                d: v,
                a: eax,
                count: Src::Imm(3),
            },
            Op::And {
                d: v,
                a: Src::Imm(-8),
                b: Gr(302),
            },
            // `sxt` and `ld8` are never clean, whatever they read.
            Op::Xt {
                signed: true,
                d: v,
                a: eax,
                size: 4,
            },
            Op::Xt {
                signed: true,
                d: v,
                a: eax,
                size: 1,
            },
            Op::Ld {
                sz: 8,
                d: v,
                addr: eax,
                spec: false,
            },
        ];
        for op in unclean {
            let out = forwarded(&[ipf::Inst::new(op), zxt(4, w, v), st4(w, w)]);
            assert_eq!(out[1], zxt(4, w, v), "after {op}");
            assert_eq!(out[2], st4(w, w));
            // The same through a home: the write stays a `zxt4`, and a
            // later read of the home is not forwarded to `v`.
            let out = forwarded(&[ipf::Inst::new(op), zxt(4, eax, v), st4(eax, eax)]);
            assert_eq!(out[1], zxt(4, eax, v), "after {op}");
            assert_eq!(out[2], st4(eax, eax));
        }
    }

    #[test]
    fn forwarding_folds_the_zxt4_of_a_clean_value_and_reads_through_the_home() {
        let (eax, ecx) = (guest_gpr(0), guest_gpr(1));
        // `u` is arbitrary: the sum of two homes.
        let (u, k, v, w) = (Gr(300), Gr(301), Gr(302), Gr(303));
        let clean = [
            Op::And {
                d: v,
                a: Src::Imm(0xFFFF),
                b: u,
            },
            Op::And {
                d: v,
                a: Src::Reg(k),
                b: u,
            },
            Op::Xt {
                signed: false,
                d: v,
                a: u,
                size: 1,
            },
            Op::Xt {
                signed: false,
                d: v,
                a: u,
                size: 2,
            },
            Op::Xt {
                signed: false,
                d: v,
                a: u,
                size: 4,
            },
            Op::Extr {
                d: v,
                a: u,
                pos: 8,
                len: 8,
                signed: false,
            },
            Op::DepZ {
                d: v,
                src: u,
                pos: 4,
                len: 28,
            },
            Op::Shift {
                kind: ShiftKind::ShrU,
                d: v,
                a: u,
                count: Src::Imm(32),
            },
            Op::Popcnt { d: v, a: u },
            Op::Xor {
                d: v,
                a: Src::Reg(eax),
                b: ecx,
            },
        ];
        let loads = [1, 2, 4].map(|sz| Op::Ld {
            sz,
            d: v,
            addr: ecx,
            spec: false,
        });
        for op in clean.into_iter().chain(loads) {
            let head = [
                ipf::Inst::new(Op::Add {
                    d: u,
                    a: Src::Reg(eax),
                    b: ecx,
                }),
                ipf::Inst::new(Op::Movl {
                    d: k,
                    imm: 0xFFFF_FFFF,
                }),
                ipf::Inst::new(op),
            ];
            // Virtual to virtual: the `zxt4` is a copy, and the copy is
            // read through.
            let out = forwarded(&[&head[..], &[zxt(4, w, v), st4(w, w)]].concat());
            assert_eq!(out[3..], [mov(w, v), st4(v, v)], "after {op}");
            // Into a home: the write becomes a copy and stays, later
            // reads of the home name `v`.
            let out = forwarded(&[&head[..], &[zxt(4, eax, v), st4(eax, eax)]].concat());
            assert_eq!(out[3..], [mov(eax, v), st4(v, v)], "after {op}");
        }
    }

    #[test]
    fn forwarding_stops_at_whatever_could_change_the_value() {
        let (eax, ecx, edx) = (guest_gpr(0), guest_gpr(1), guest_gpr(2));
        let (v, w) = (Gr(300), Gr(301));
        let p = Pr(400);
        let cmp = ipf::Inst::new(Op::Cmp {
            rel: ipf::inst::CmpRel::Eq,
            pt: p,
            pf: P0,
            a: Src::Reg(ecx),
            b: edx,
        });
        // A predicated def of the virtual teaches nothing.
        let out = forwarded(&[
            cmp,
            ipf::Inst::pred(
                p,
                Op::Xt {
                    signed: false,
                    d: v,
                    a: ecx,
                    size: 1,
                },
            ),
            mov(eax, v),
            st4(eax, eax),
        ]);
        assert_eq!(out[3], st4(eax, eax));
        // Nor does a virtual defined twice.
        let out = forwarded(&[zxt(1, v, ecx), mov(eax, v), zxt(1, v, edx), st4(eax, eax)]);
        assert_eq!(out[3], st4(eax, eax));
        // A predicated copy into the home merges: no alias afterwards.
        let out = forwarded(&[
            zxt(1, v, ecx),
            cmp,
            ipf::Inst::pred(p, mov(eax, v).op),
            st4(eax, eax),
        ]);
        assert_eq!(out[3], st4(eax, eax));
        // Any other def of the home ends the alias — after reading the
        // old value through it.
        let dep = |target| {
            ipf::Inst::new(Op::Dep {
                d: eax,
                src: w,
                target,
                pos: 0,
                len: 8,
            })
        };
        let out = forwarded(&[
            zxt(2, v, ecx),
            zxt(1, w, edx),
            mov(eax, v),
            dep(eax),
            st4(eax, eax),
        ]);
        assert_eq!(out[3..], [dep(v), st4(eax, eax)]);
    }

    #[test]
    fn a_read_after_the_home_is_redefined_sees_the_new_value() {
        let (eax, ecx, edx) = (guest_gpr(0), guest_gpr(1), guest_gpr(2));
        let (v1, v2, snap) = (Gr(300), Gr(301), Gr(302));
        let out = forwarded(&[
            zxt(1, v1, ecx),
            mov(eax, v1),
            mov(snap, eax),
            zxt(1, v2, edx),
            mov(eax, v2),
            st4(eax, snap),
        ]);
        // The snapshot taken in between keeps the old value.
        assert_eq!(out[2], mov(snap, v1));
        assert_eq!(out[5], st4(v2, v1));
    }

    #[test]
    fn a_home_is_clean_only_while_its_defs_say_so() {
        // A template may break the zero-extension invariant between two
        // of its own ops; the `zxt4` that restores it must survive.
        let (eax, ecx) = (guest_gpr(0), guest_gpr(1));
        let add = ipf::Inst::new(Op::Add {
            d: eax,
            a: Src::Reg(eax),
            b: ecx,
        });
        let out = forwarded(&[add, zxt(4, eax, eax), zxt(4, ecx, eax)]);
        assert_eq!(out[1], zxt(4, eax, eax));
        assert_eq!(out[2], mov(ecx, eax), "clean again after the zxt4");
    }

    #[test]
    fn forwarding_reads_through_copies_and_unchanged_physical_registers() {
        let (eax, ecx) = (guest_gpr(0), guest_gpr(1));
        let (v1, v2, v3) = (Gr(300), Gr(301), Gr(302));
        let out = forwarded(&[
            ipf::Inst::new(Op::Add {
                d: v1,
                a: Src::Imm(3),
                b: eax,
            }),
            mov(v2, v1),
            st4(v2, eax),
            // A snapshot of a register nothing has redefined is that
            // register; once it is redefined, the snapshot is not.
            mov(v3, EFLAGS),
            st4(ecx, v3),
            mov(EFLAGS, R0),
            st4(ecx, v3),
        ]);
        assert_eq!(out[2], st4(v1, eax), "store reads through the copy");
        assert_eq!(out[4], st4(ecx, EFLAGS));
        assert_eq!(out[6], st4(ecx, v3));
        // `mov ecx, eax` copies home to home: the `zxt4` folds, and
        // reads of ECX name EAX's home.
        let out = forwarded(&[zxt(4, ecx, eax), st4(ecx, ecx)]);
        assert_eq!(out[..], [mov(ecx, eax), st4(eax, eax)]);
    }

    #[test]
    fn a_home_copied_from_another_home_reads_the_source_until_either_changes() {
        let (eax, ecx, edx, ebx) = (guest_gpr(0), guest_gpr(1), guest_gpr(2), guest_gpr(3));
        let (v, p) = (Gr(300), Pr(400));
        let mov_edx_eax = zxt(4, edx, eax);
        // `mov edx, eax; mov ecx, edx`: the chain forwards to EAX.
        let out = forwarded(&[mov_edx_eax, zxt(4, ecx, edx), st4(ecx, edx)]);
        assert_eq!(out[..], [mov(edx, eax), mov(ecx, eax), st4(eax, eax)]);
        // A def of the source, unpredicated or predicated, ends the alias.
        let out = forwarded(&[mov_edx_eax, movi(eax, 5), st4(edx, edx)]);
        assert_eq!(out[2], st4(edx, edx));
        let out = forwarded(&[
            mov_edx_eax,
            cmp_eq(p, ecx, ebx),
            ipf::Inst::pred(p, movi(eax, 5).op),
            st4(edx, edx),
        ]);
        assert_eq!(out[3], st4(edx, edx));
        // So does a def of the destination.
        let out = forwarded(&[mov_edx_eax, movi(edx, 7), st4(edx, edx)]);
        assert_eq!(out[2], st4(edx, edx));
        // `mov edx, eax; inc eax`: a read of EAX sees the new value, a
        // read of EDX the old one in EDX's home, not EAX's.
        let inc = ipf::Inst::new(Op::Add {
            d: v,
            a: Src::Imm(1),
            b: eax,
        });
        let out = forwarded(&[mov_edx_eax, inc, zxt(4, eax, v), st4(eax, edx)]);
        assert_eq!(out[1..], [inc, zxt(4, eax, v), st4(eax, edx)]);
    }

    #[test]
    #[should_panic(expected = "forward_state changed what the trace computes")]
    fn the_validation_catches_a_zxt4_folded_away_wrongly() {
        let (eax, ecx) = (guest_gpr(0), guest_gpr(1));
        let v = Gr(300);
        let sum = ipf::Inst::new(Op::Add {
            d: v,
            a: Src::Reg(eax),
            b: ecx,
        });
        eval::assert_preserves(
            "forward_state",
            &[sum, zxt(4, eax, v)],
            &[sum, mov(eax, v)],
            &[0, 1],
        );
    }

    #[test]
    #[should_panic(expected = "lvn changed what the trace computes")]
    fn the_validation_catches_an_lvn_that_merges_across_a_home_redefinition() {
        // What an `lvn` keyed without source versions makes of
        // `v1 = eax + 8; eax += 1; v2 = eax + 8`: one sum for both.
        let eax = guest_gpr(0);
        let (v1, v2) = (Gr(300), Gr(301));
        let sum = |d| {
            ipf::Inst::new(Op::Add {
                d,
                a: Src::Imm(8),
                b: eax,
            })
        };
        let inc = ipf::Inst::new(Op::Add {
            d: eax,
            a: Src::Imm(1),
            b: eax,
        });
        eval::assert_preserves(
            "lvn",
            &[sum(v1), inc, sum(v2), st4(v1, v2)],
            &[sum(v1), inc, st4(v1, v1)],
            &[0, 1, 3],
        );
    }

    // ---- demanded_bits -------------------------------------------------

    /// `demanded_bits` over `ops`, checked against them on the reference
    /// evaluator.
    fn narrowed(ops: &[ipf::Inst]) -> Vec<ipf::Inst> {
        let mut irs: Vec<IrInst> = ops.iter().map(|&i| il(i)).collect();
        demanded_bits(&mut irs);
        let out: Vec<ipf::Inst> = irs.iter().map(|x| x.inst).collect();
        eval::assert_preserves("demanded_bits", ops, &out, &Vec::from_iter(0..ops.len()));
        out
    }

    fn add(d: Gr, a: Gr, b: Gr) -> ipf::Inst {
        ipf::Inst::new(Op::Add {
            d,
            a: Src::Reg(a),
            b,
        })
    }

    fn and_imm(d: Gr, mask: i64, b: Gr) -> ipf::Inst {
        ipf::Inst::new(Op::And {
            d,
            a: Src::Imm(mask),
            b,
        })
    }

    #[test]
    fn a_multiply_and_a_masked_index_read_past_the_zxt4() {
        let (eax, ecx, edx, esi) = (guest_gpr(0), guest_gpr(1), guest_gpr(2), guest_gpr(6));
        let (v, w) = (Gr(300), Gr(301));
        let (f0, f1, f2) = (ipf::regs::Fr(300), ipf::regs::Fr(301), ipf::regs::Fr(302));
        // `add edi, ebx ; imul edi, ebx`: the `setf.sig` of the new EAX
        // reads the sum, not the home's `zxt4` of it, because `xma.l`
        // and `getf.sig` pass on only the low bits the final `zxt4`
        // reads. The home write keeps its `zxt4`.
        let multiply = [
            add(v, eax, ecx),
            zxt(4, eax, v),
            ipf::Inst::new(Op::Setf {
                kind: FXfer::Sig,
                f: f0,
                r: eax,
            }),
            ipf::Inst::new(Op::Setf {
                kind: FXfer::Sig,
                f: f1,
                r: ecx,
            }),
            ipf::Inst::new(Op::Xma {
                d: f2,
                a: f0,
                b: f1,
                c: ipf::regs::F0,
                high: false,
            }),
            ipf::Inst::new(Op::Getf {
                kind: FXfer::Sig,
                d: w,
                f: f2,
            }),
            zxt(4, eax, w),
        ];
        let out = narrowed(&multiply);
        assert_eq!(out[1], multiply[1], "the home write keeps its zxt4");
        assert_eq!(
            out[2],
            ipf::Inst::new(Op::Setf {
                kind: FXfer::Sig,
                f: f0,
                r: v,
            })
        );
        assert_eq!(out[3..], multiply[3..]);
        // `dec ecx` then `and eax, 0x3fff` and a 32-bit store: the `and`
        // (under an immediate mask or a register holding one) and the
        // store's value read the difference.
        let (k, m, n) = (Gr(302), Gr(303), Gr(304));
        let ops = [
            ipf::Inst::new(Op::Add {
                d: v,
                a: Src::Imm(-1),
                b: ecx,
            }),
            zxt(4, w, v),
            and_imm(k, 0x3FFF, w),
            movi(m, 1),
            ipf::Inst::new(Op::And {
                d: n,
                a: Src::Reg(w),
                b: m,
            }),
            ipf::Inst::new(Op::Shladd {
                d: k,
                a: k,
                count: 2,
                b: esi,
            }),
            st4(k, w),
            st4(edx, n),
        ];
        let out = narrowed(&ops);
        assert_eq!(out[2], and_imm(k, 0x3FFF, v));
        assert_eq!(
            out[4],
            ipf::Inst::new(Op::And {
                d: n,
                a: Src::Reg(v),
                b: m,
            })
        );
        assert_eq!(out[6], st4(k, v));
        // The `and`'s result forms an address, which reads all of it.
        assert_eq!(out[5], ops[5]);
    }

    #[test]
    fn a_use_that_reads_the_high_bits_keeps_reading_the_zxt4() {
        let (eax, ecx, edx) = (guest_gpr(0), guest_gpr(1), guest_gpr(2));
        let (v, w, x) = (Gr(300), Gr(301), Gr(302));
        let p = Pr(400);
        let head = [add(v, eax, ecx), zxt(4, w, v)];
        let readers = [
            // A compare reads all 64 bits.
            cmp_eq(p, w, R0),
            // So do an address and the shifted-out bits of a right shift.
            ipf::Inst::new(Op::Ld {
                sz: 4,
                d: x,
                addr: w,
                spec: false,
            }),
            st4(w, edx),
            ipf::Inst::new(Op::Shift {
                kind: ShiftKind::ShrU,
                d: x,
                a: w,
                count: Src::Imm(3),
            }),
            // A home, or any physical register, keeps what it is given.
            mov(edx, w),
            add(edx, w, ecx),
            // A sum whose own reader reads all of it.
            add(x, w, ecx),
        ];
        for reader in readers {
            let mut ops = [&head[..], &[reader]].concat();
            if matches!(reader.op, Op::Shift { .. } | Op::Add { d: Gr(302), .. }) {
                ops.push(st4(edx, x));
                ops.push(cmp_eq(p, x, R0));
            }
            assert_eq!(narrowed(&ops), ops, "{reader}");
        }
        // A predicated `Xt` may leave the old value.
        let ops = [
            add(v, eax, ecx),
            cmp_eq(p, ecx, edx),
            ipf::Inst::pred(p, zxt(4, w, v).op),
            st4(edx, w),
        ];
        assert_eq!(narrowed(&ops), ops);
        // Nor once the source changed after the `Xt`.
        let ops = [zxt(4, w, eax), movi(eax, 7), st4(edx, w)];
        assert_eq!(narrowed(&ops), ops);
        let ops = [
            zxt(4, w, eax),
            cmp_eq(p, ecx, edx),
            ipf::Inst::pred(p, movi(eax, 7).op),
            st4(edx, w),
        ];
        assert_eq!(narrowed(&ops), ops);
        // A `zxt1` covers a byte store only.
        let ops = [zxt(1, w, eax), st4(edx, w)];
        assert_eq!(narrowed(&ops), ops);
        let st1 = ipf::Inst::new(Op::St {
            sz: 1,
            addr: edx,
            val: w,
        });
        let out = narrowed(&[zxt(1, w, eax), st1]);
        assert_eq!(
            out[1],
            ipf::Inst::new(Op::St {
                sz: 1,
                addr: edx,
                val: eax,
            })
        );
    }

    #[test]
    #[should_panic(expected = "demanded_bits changed what the trace computes")]
    fn the_validation_catches_a_bypass_into_a_compare() {
        // What a `demanded_bits` that let a compare read past the `zxt4`
        // makes of `v = 0xffffffff + eax ; w = zxt4 v ; cmp.ltu w, k`:
        // `v` carries into bit 32, so the compare flips.
        let (eax, edx) = (guest_gpr(0), guest_gpr(2));
        let (k, v, w) = (Gr(300), Gr(301), Gr(302));
        let p = Pr(400);
        let cmp = |a| {
            ipf::Inst::new(Op::Cmp {
                rel: ipf::inst::CmpRel::Ltu,
                pt: p,
                pf: P0,
                a: Src::Reg(a),
                b: k,
            })
        };
        let head = [
            ipf::Inst::new(Op::Movl {
                d: k,
                imm: 0xFFFF_FFFF,
            }),
            add(v, k, eax),
            zxt(4, w, v),
        ];
        let tail = [ipf::Inst::pred(p, movi(edx, 1).op), st4(edx, edx)];
        let before = [&head[..], &[cmp(w)], &tail].concat();
        let after = [&head[..], &[cmp(v)], &tail].concat();
        eval::assert_preserves(
            "demanded_bits",
            &before,
            &after,
            &Vec::from_iter(0..before.len()),
        );
    }

    // ---- dead_code ----------------------------------------------------

    /// `dead_code` over `ops`, checked against them on the reference
    /// evaluator.
    fn dead_code_checked(ops: &[ipf::Inst]) -> Vec<ipf::Inst> {
        let mut irs: Vec<IrInst> = ops.iter().map(|&i| il(i)).collect();
        let from = dead_code(&mut irs);
        let out: Vec<ipf::Inst> = irs.iter().map(|x| x.inst).collect();
        eval::assert_preserves("dead_code", ops, &out, &from);
        out
    }

    fn movi(d: Gr, imm: i64) -> ipf::Inst {
        ipf::Inst::new(Op::Add {
            d,
            a: Src::Imm(imm),
            b: R0,
        })
    }

    fn cmp_eq(p: Pr, a: Gr, b: Gr) -> ipf::Inst {
        ipf::Inst::new(Op::Cmp {
            rel: ipf::inst::CmpRel::Eq,
            pt: p,
            pf: P0,
            a: Src::Reg(a),
            b,
        })
    }

    #[test]
    fn eflags_writes_live_only_up_to_their_overwrite() {
        let g = guest_gpr(0);
        let observers = [
            st4(g, g),
            ipf::Inst::new(Op::Ld {
                sz: 4,
                d: Gr(300),
                addr: g,
                spec: false,
            }),
        ];
        for observer in observers {
            let out = dead_code_checked(&[
                // Dead: overwritten before any observer.
                movi(EFLAGS, 1),
                // Live: the op that can fault observes it.
                movi(EFLAGS, 2),
                observer,
                // Live: the trace end observes it.
                movi(EFLAGS, 3),
            ]);
            assert_eq!(out, [movi(EFLAGS, 2), observer, movi(EFLAGS, 3)]);
        }
    }

    #[test]
    fn an_eflags_merge_dies_with_the_home_and_its_inputs_with_it() {
        let (eax, ecx, edx) = (guest_gpr(0), guest_gpr(1), guest_gpr(2));
        let (v, p) = (Gr(300), Pr(400));
        let merge = |qp| {
            ipf::Inst::pred(
                qp,
                Op::Dep {
                    d: EFLAGS,
                    src: v,
                    target: EFLAGS,
                    pos: 0,
                    len: 1,
                },
            )
        };
        // A lazy-flags read-modify-write chain: compute a flag bit,
        // merge it in; a full overwrite before any observer kills it.
        let add = ipf::Inst::new(Op::Add {
            d: v,
            a: Src::Imm(1),
            b: eax,
        });
        let out = dead_code_checked(&[add, merge(P0), movi(EFLAGS, 0)]);
        assert_eq!(out, [movi(EFLAGS, 0)]);
        // The same under a predicate: a merge into a dead home is dead.
        let out = dead_code_checked(&[add, cmp_eq(p, ecx, edx), merge(p), movi(EFLAGS, 0)]);
        assert_eq!(out, [movi(EFLAGS, 0)]);
        // A predicated write only merges: the write before it stays.
        let ops = [
            movi(EFLAGS, 1),
            cmp_eq(p, ecx, edx),
            ipf::Inst::pred(p, movi(EFLAGS, 2).op),
        ];
        assert_eq!(dead_code_checked(&ops), ops);
    }

    #[test]
    fn a_home_write_overwritten_before_any_observer_is_deleted() {
        let (eax, ecx) = (guest_gpr(0), guest_gpr(1));
        let v = Gr(300);
        let write = [
            ipf::Inst::new(Op::Add {
                d: v,
                a: Src::Imm(1),
                b: ecx,
            }),
            mov(eax, v),
        ];
        // The write goes, and the virtual it copied with it.
        let out = dead_code_checked(&[&write[..], &[movi(eax, 5)]].concat());
        assert_eq!(out, [movi(eax, 5)]);
        // An unrelated predicated op in between observes nothing.
        let (edx, p) = (guest_gpr(2), Pr(400));
        let unrelated = [
            cmp_eq(p, ecx, edx),
            ipf::Inst::pred(p, movi(edx, 3).op),
            movi(eax, 5),
        ];
        let out = dead_code_checked(&[&write[..], &unrelated].concat());
        assert_eq!(out, unrelated);
    }

    #[test]
    fn a_home_write_is_kept_when_anything_may_observe_it() {
        let (eax, ecx, edx, ebx) = (guest_gpr(0), guest_gpr(1), guest_gpr(2), guest_gpr(3));
        let (v, w) = (Gr(300), Gr(301));
        let write = [
            ipf::Inst::new(Op::Add {
                d: v,
                a: Src::Imm(1),
                b: ecx,
            }),
            mov(eax, v),
        ];
        let exit = ipf::Inst::new(Op::Br {
            target: ipf::inst::Target::Abs(crate::layout::StubKind::Untranslated.addr()),
        });
        let load = ipf::Inst::new(Op::Ld {
            sz: 4,
            d: w,
            addr: ebx,
            spec: false,
        });
        let tails: [&[ipf::Inst]; 4] = [
            // A side exit reads all guest state.
            &[exit, movi(eax, 5)],
            // So does the recovery walk of an op that can fault.
            &[load, movi(eax, 5)],
            // A read of the home.
            &[mov(w, eax), mov(edx, w), movi(eax, 5)],
            // The next write reads the home itself.
            &[ipf::Inst::new(Op::Add {
                d: eax,
                a: Src::Imm(1),
                b: eax,
            })],
        ];
        for tail in tails {
            let ops = [&write[..], tail].concat();
            assert_eq!(dead_code_checked(&ops), ops, "{}", tail[0]);
        }
    }

    #[test]
    #[should_panic(expected = "dead_code changed what the trace computes")]
    fn the_validation_catches_an_observed_write_deleted() {
        let (eax, ebx) = (guest_gpr(0), guest_gpr(3));
        let load = ipf::Inst::new(Op::Ld {
            sz: 4,
            d: Gr(300),
            addr: ebx,
            spec: false,
        });
        let ops = [movi(eax, 1), load, movi(eax, 5)];
        eval::assert_preserves("dead_code", &ops, &ops[1..], &[1, 2]);
    }
}
