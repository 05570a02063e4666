//! A reference evaluator for hot IR, and the translation validation of
//! the hot passes ([`opt::forward_state`](super::opt::forward_state),
//! [`opt::demanded_bits`](super::opt::demanded_bits),
//! [`opt::lvn`](super::opt::lvn), [`opt::dead_code`](super::opt::dead_code))
//! and of the backend's group ordering built on it.
//!
//! The evaluator runs a sequence of micro-ops — virtual registers
//! allowed — one at a time on an [`ipf::Machine`], so an op means here
//! exactly what it means when installed. Virtual registers live in a
//! side table and are shuttled through a few reserved physical
//! registers around each op. Nothing ends a run early: a taken branch,
//! a fault or a consumed NaT is recorded, together with the registers
//! and stores at that point, and execution carries on down the
//! fall-through path, so one seeded register file exercises a whole
//! trace and every exit's state is compared.
//!
//! Compiled into test and debug builds only; the hot compiler
//! (`trace::compile_ir`) validates its passes on every trace it compiles
//! on a thread whose test has asked for it ([`validate_from_now_on`]),
//! and the scheduler's tests validate the ordering of every trace the
//! kernels compile.

use super::liveness::{virt_key, VirtKey};
use super::regalloc::phys_reg;
use crate::state::{GR_GUEST, GR_ONE};
use ipf::inst::{Op, Reg, Target};
use ipf::machine::{Bus, BusError, CodeArena, MachFault, Machine, StopReason};
use std::collections::HashMap;

/// Physical registers virtual operands are shuttled through, per class
/// (general, floating, predicate) — outside everything `state.rs` maps
/// and the allocator's pools. An op names at most four of a class.
const TEMPS: [[u16; 4]; 3] = [[120, 121, 122, 123], [120, 121, 122, 123], [56, 57, 58, 59]];
/// Base of the evaluator's own code arena, far from every stub address.
const ARENA_BASE: u64 = 1 << 60;
/// Where label `l` of the trace body "is": outside the arena, so a
/// taken side exit shows up as an external branch to a known address.
const LABEL_BASE: u64 = 1 << 61;

/// The physical register files at one point of a run (shuttle
/// registers zeroed).
#[derive(Clone, PartialEq, Debug)]
pub(crate) struct Regs {
    /// General registers and their NaT bits.
    pub gr: Vec<(u64, bool)>,
    /// FP registers (raw) and their NaT bits.
    pub fr: Vec<(u64, bool)>,
    /// Predicates.
    pub pr: Vec<bool>,
    /// Branch registers.
    pub br: Vec<u64>,
}

/// Why an op was recorded as an event.
#[derive(Clone, Copy, PartialEq, Debug)]
pub(crate) enum EventKind {
    /// A branch was taken to this address.
    Left(u64),
    /// The op faulted and was skipped.
    Fault(MachFault),
    /// The op can fault, and the run was asked to record the state it
    /// would fault in: the registers before it ran.
    Commit,
}

/// What one run left behind.
#[derive(PartialEq, Debug)]
pub(crate) struct Outcome {
    /// Every op that left the trace or faulted (or is a commit point the
    /// run was asked to record): its index, why, and the registers and
    /// the number of stores done at that point.
    pub events: Vec<(usize, EventKind, Regs, usize)>,
    /// Every store, in order: address, size, value.
    pub stores: Vec<(u64, u32, u64)>,
    /// The registers after the last op.
    pub end: Regs,
}

/// A 64-bit mix of `seed` and `x` (splitmix64's finalizer).
fn mix(seed: u64, x: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(x)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Memory that never faults: every byte reads as a function of the
/// seed and its address until a store overwrites it.
struct SeededBus {
    seed: u64,
    written: HashMap<u64, u8>,
    stores: Vec<(u64, u32, u64)>,
}

impl Bus for SeededBus {
    fn read(&mut self, addr: u64, size: u32) -> Result<u64, BusError> {
        Ok((0..size as u64).fold(0, |v, i| {
            let a = addr.wrapping_add(i);
            let byte = self
                .written
                .get(&a)
                .copied()
                .unwrap_or(mix(self.seed, a) as u8);
            v | (byte as u64) << (i * 8)
        }))
    }

    fn write(&mut self, addr: u64, size: u32, val: u64) -> Result<(), BusError> {
        let val = if size < 8 {
            val & ((1 << (size * 8)) - 1)
        } else {
            val
        };
        for i in 0..size as u64 {
            self.written
                .insert(addr.wrapping_add(i), (val >> (i * 8)) as u8);
        }
        self.stores.push((addr, size, val));
        Ok(())
    }
}

/// Renames `inst`'s virtual operands to the shuttle registers and its
/// label target to an address outside the arena; returns the op and
/// its `(virtual, shuttle register)` pairs.
fn prepare(inst: &ipf::Inst) -> (ipf::Inst, Vec<(VirtKey, u16)>) {
    let mut shuttle: Vec<(VirtKey, u16)> = Vec::new();
    let mut rename = |r: Reg| -> Reg {
        let (class, n) = match r {
            Reg::G(g) => (0, g.0),
            Reg::F(f) => (1, f.0),
            Reg::P(p) => (2, p.0),
            Reg::B(_) => return r,
        };
        let Some(k) = virt_key(r) else {
            assert!(
                !TEMPS[class].contains(&n),
                "{inst} names a shuttle register of the evaluator"
            );
            return r;
        };
        let t = match shuttle.iter().find(|(v, _)| *v == k) {
            Some(&(_, t)) => t,
            None => {
                let taken = shuttle.iter().filter(|(v, _)| v.0 == k.0).count();
                let t = TEMPS[k.0 as usize][taken];
                shuttle.push((k, t));
                t
            }
        };
        phys_reg(k.0, t)
    };
    let mut out = *inst;
    if let Reg::P(p) = rename(Reg::P(out.qp)) {
        out.qp = p;
    }
    out.op.map_regs(|r, _| rename(r));
    if let Some(Target::Label(l)) = out.op.target() {
        out.op
            .set_target(Target::Abs(LABEL_BASE + l as u64 * ipf::Bundle::SIZE));
    }
    (out, shuttle)
}

fn snapshot(m: &Machine) -> Regs {
    let mut regs = Regs {
        gr: m.gr.iter().copied().zip(m.gr_nat).collect(),
        fr: m.fr.iter().copied().zip(m.fr_nat).collect(),
        pr: m.pr.to_vec(),
        br: m.br.to_vec(),
    };
    for &t in &TEMPS[0] {
        regs.gr[t as usize] = (0, false);
    }
    for &t in &TEMPS[1] {
        regs.fr[t as usize] = (0, false);
    }
    for &t in &TEMPS[2] {
        regs.pr[t as usize] = false;
    }
    regs
}

/// The seed whose register file has every guest GPR home at
/// `0xFFFF_FFFF`: an add of 1 to one leaves the low half zero with a
/// carry out, the one value where a compare of a `zxt4` and a compare
/// of what it extends disagree.
const BOUNDARY: u64 = u64::MAX;

/// Runs `insts` from a register file and memory derived from `seed`.
/// The guest GPR homes start zero-extended (the `state.rs` invariant a
/// trace may assume on entry) and 8-aligned, or all at `0xFFFF_FFFF`
/// for [`BOUNDARY`]; the constant-one register holds one, everything
/// else — virtual registers read before they are written included — is
/// arbitrary.
#[cfg(test)]
pub(crate) fn run(insts: &[ipf::Inst], seed: u64) -> Outcome {
    run_recording(insts, seed, false)
}

/// [`run`], also recording the state before every op that can fault
/// when `commits` is set.
fn run_recording(insts: &[ipf::Inst], seed: u64, commits: bool) -> Outcome {
    let (code, shuttles): (Vec<ipf::Inst>, Vec<_>) = insts.iter().map(prepare).unzip();
    let mut arena = CodeArena::new(ARENA_BASE);
    let nop = ipf::Bundle::nops();
    arena.append(
        code.iter()
            .map(|&inst| ipf::Bundle {
                slots: [inst, nop.slots[1], nop.slots[2]],
                stops: [true; 3],
                ..nop
            })
            .collect(),
        0,
    );
    let mut m = Machine::new(arena, ipf::Timing::default());
    for (i, r) in m.gr.iter_mut().enumerate().skip(1) {
        *r = mix(seed, i as u64);
    }
    for h in GR_GUEST..GR_GUEST + 8 {
        m.gr[h as usize] = match seed {
            BOUNDARY => 0xFFFF_FFFF,
            _ => m.gr[h as usize] & 0xFFFF_FFF8,
        };
    }
    m.gr[GR_ONE.0 as usize] = 1;
    for (i, r) in m.fr.iter_mut().enumerate().skip(2) {
        *r = mix(seed, 0x1000 + i as u64);
    }
    for (i, p) in m.pr.iter_mut().enumerate().skip(1) {
        *p = mix(seed, 0x2000 + i as u64) & 1 != 0;
    }
    for (i, b) in m.br.iter_mut().enumerate() {
        *b = LABEL_BASE | mix(seed, 0x3000 + i as u64) << 4;
    }
    let mut bus = SeededBus {
        seed,
        written: HashMap::new(),
        stores: Vec::new(),
    };
    // Virtual registers: value (raw bits, or the predicate) and NaT.
    let mut virt: HashMap<VirtKey, (u64, bool)> = HashMap::new();
    let mut events = Vec::new();

    for (k, shuttle) in shuttles.iter().enumerate() {
        for &(v, t) in shuttle {
            let (val, nat) = *virt
                .entry(v)
                .or_insert_with(|| (mix(seed, 0x4000 + ((v.0 as u64) << 16 | v.1 as u64)), false));
            match v.0 {
                0 => (m.gr[t as usize], m.gr_nat[t as usize]) = (val, nat),
                1 => (m.fr[t as usize], m.fr_nat[t as usize]) = (val, nat),
                _ => m.pr[t as usize] = val & 1 != 0,
            }
        }
        if commits && code[k].op.can_fault() {
            events.push((k, EventKind::Commit, snapshot(&m), bus.stores.len()));
        }
        m.set_ip(ARENA_BASE + k as u64 * ipf::Bundle::SIZE, 0);
        let event = match m.run(&mut bus, 1) {
            StopReason::InstLimit => None,
            StopReason::ExternalBranch { target, .. } => Some(EventKind::Left(target)),
            // A misaligned integer access is the guest's business, not
            // the pass's: do it bytewise and carry on.
            StopReason::Fault {
                fault: MachFault::Misalign { addr, size, .. },
                ..
            } if matches!(code[k].op, Op::Ld { .. } | Op::St { .. }) => {
                match code[k].op {
                    Op::Ld { d, .. } => {
                        let v = bus.read(addr, size as u32).expect("the bus never faults");
                        (m.gr[d.phys()], m.gr_nat[d.phys()]) = (v, false);
                    }
                    Op::St { val, .. } => bus
                        .write(addr, size as u32, m.gr[val.phys()])
                        .expect("the bus never faults"),
                    _ => unreachable!("matched above"),
                }
                None
            }
            StopReason::Fault { fault, .. } => Some(EventKind::Fault(fault)),
        };
        if let Some(kind) = event {
            events.push((k, kind, snapshot(&m), bus.stores.len()));
        }
        for &(v, t) in shuttle {
            let now = match v.0 {
                0 => (m.gr[t as usize], m.gr_nat[t as usize]),
                1 => (m.fr[t as usize], m.fr_nat[t as usize]),
                _ => (m.pr[t as usize] as u64, false),
            };
            virt.insert(v, now);
        }
    }
    Outcome {
        events,
        stores: bus.stores,
        end: snapshot(&m),
    }
}

#[cfg(debug_assertions)]
thread_local! {
    /// Traces the hot compiler has validated on this thread, once a
    /// test has asked it to.
    static VALIDATED: std::cell::Cell<Option<u64>> = const { std::cell::Cell::new(None) };
}

/// Makes this thread's hot compiler validate the passes of every trace
/// it compiles from now on; returns how many traces it has validated so
/// far.
#[cfg(debug_assertions)]
pub(super) fn validate_from_now_on() -> u64 {
    let n = VALIDATED.get().unwrap_or(0);
    VALIDATED.set(Some(n));
    n
}

/// Whether a test has asked this thread's hot compiler to validate.
#[cfg(debug_assertions)]
pub(super) fn validating() -> bool {
    VALIDATED.get().is_some()
}

/// Counts one more trace validated, if a test has asked for it.
#[cfg(debug_assertions)]
pub(super) fn trace_validated() {
    VALIDATED.set(VALIDATED.get().map(|n| n + 1));
}

/// Translation validation of one pass over a trace: `after` is what
/// `pass` made of `before`, `from[k]` the index in `before` of `after`'s
/// op `k` — the identity for a pass that rewrites operands, a
/// permutation for one that reorders, the kept indices for one that
/// deletes. From each of a few seeded register files both must make the
/// same stores, end with the same registers, and reach the same exits
/// and faults at the same ops in the same order. At an exit every
/// register must agree: a branch ends its group, and no pass deletes
/// one, so the same ops have run by then. Before every op that can
/// fault — whether or not it does — the architectural state must: ops
/// of its group that moved across it write only pool and scratch
/// registers, which recovery does not read. An op the pass deleted is
/// no commit point any more (`lvn` drops a load an equal one before it
/// already made), but a fault it would have taken still has to happen.
///
/// # Panics
///
/// Panics, naming `pass` and the first difference, if they disagree.
pub(super) fn assert_preserves(
    pass: &str,
    before: &[ipf::Inst],
    after: &[ipf::Inst],
    from: &[usize],
) {
    assert_eq!(from.len(), after.len(), "one index per op");
    let mut kept = vec![false; before.len()];
    for &i in from {
        kept[i] = true;
    }
    for seed in [1, 2, BOUNDARY] {
        let (mut want, got) = (
            run_recording(before, seed, true),
            run_recording(after, seed, true),
        );
        want.events
            .retain(|&(i, kind, ..)| kind != EventKind::Commit || kept[i]);
        let listing = || -> String {
            let mut to = vec![None; before.len()];
            for (k, &i) in from.iter().enumerate() {
                to[i] = Some(k);
            }
            let line = |(i, b): (usize, &ipf::Inst)| match to[i] {
                Some(k) => format!("{i:4}  {b}    ->    {k:4}  {}\n", after[k]),
                None => format!("{i:4}  {b}    ->    deleted\n"),
            };
            before.iter().enumerate().map(line).collect()
        };
        let fail = |what: String| -> ! {
            panic!(
                "{pass} changed what the trace computes (seed {seed}): {what}\n{}",
                listing()
            )
        };
        if want.stores != got.stores {
            fail(format!(
                "stores: {:x?} became {:x?}",
                want.stores, got.stores
            ));
        }
        if want.end != got.end {
            fail(format!(
                "final state: {}",
                first_difference(&want.end, &got.end)
            ));
        }
        if want.events.len() != got.events.len() {
            fail(format!(
                "{} events became {}",
                want.events.len(),
                got.events.len()
            ));
        }
        for (w, g) in want.events.iter().zip(&got.events) {
            // An exit block restores and reads architectural state
            // only, so that is all a side exit must agree on.
            let side_exit = matches!(before[w.0].op.target(), Some(Target::Label(_)));
            let (w_regs, g_regs) = match w.1 {
                EventKind::Left(_) if !side_exit => (w.2.clone(), g.2.clone()),
                _ => (architectural(&w.2), architectural(&g.2)),
            };
            if w.0 != from[g.0] || w.1 != g.1 || w.3 != g.3 {
                fail(format!(
                    "event {:?} at op {} became {:?} at op {}",
                    w.1, w.0, g.1, from[g.0]
                ));
            }
            if w_regs != g_regs {
                let diff = first_difference(&w_regs, &g_regs);
                fail(format!("state at op {} ({:?}) differs: {diff}", w.0, w.1));
            }
        }
    }
}

/// `regs` with everything but architectural state zeroed.
fn architectural(regs: &Regs) -> Regs {
    use super::ir::is_state_phys;
    let mut out = regs.clone();
    for (i, v) in out.gr.iter_mut().enumerate() {
        if !is_state_phys(Reg::G(ipf::regs::Gr(i as u16))) {
            *v = (0, false);
        }
    }
    for (i, v) in out.fr.iter_mut().enumerate() {
        if !is_state_phys(Reg::F(ipf::regs::Fr(i as u16))) {
            *v = (0, false);
        }
    }
    for (i, v) in out.pr.iter_mut().enumerate() {
        if !is_state_phys(Reg::P(ipf::regs::Pr(i as u16))) {
            *v = false;
        }
    }
    out
}

/// Names the first register two snapshots disagree on.
fn first_difference(a: &Regs, b: &Regs) -> String {
    if let Some(i) = (0..a.gr.len()).find(|&i| a.gr[i] != b.gr[i]) {
        return format!("r{i} {:x?} became {:x?}", a.gr[i], b.gr[i]);
    }
    if let Some(i) = (0..a.fr.len()).find(|&i| a.fr[i] != b.fr[i]) {
        return format!("f{i} {:x?} became {:x?}", a.fr[i], b.fr[i]);
    }
    if let Some(i) = (0..a.pr.len()).find(|&i| a.pr[i] != b.pr[i]) {
        return format!("p{i} {} became {}", a.pr[i], b.pr[i]);
    }
    match (0..a.br.len()).find(|&i| a.br[i] != b.br[i]) {
        Some(i) => format!("b{i} {:x} became {:x}", a.br[i], b.br[i]),
        None => "a different event".into(),
    }
}
