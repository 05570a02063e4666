//! The Itanium instruction subset.
//!
//! [`Op`] doubles as the translator's intermediate language: register
//! fields are [`u16`]-backed so the hot optimizer can use virtual
//! registers (≥ [`crate::regs::VIRT_BASE`]) before allocation.
//!
//! Each op is described once. One variant holds one instruction with
//! its reg/imm and sub-opcode forms ([`Src`], [`ShiftKind`],
//! [`FmaKind`]). [`Op::operands_mut`] is the one operand
//! walk: `visit_regs`, `map_regs`, `uses`, `defs`, `target` and
//! `set_target` derive from it, and through them liveness, value
//! numbering, forwarding, allocation, both schedulers and
//! [`Inst::slot_meta`]. [`Op::props`] is the one property table (unit,
//! latency class, memory, branch and fault bits, purity). `Display`
//! prints an op and the machine's `exec_op` runs it.

use crate::regs::{Br, Fr, Gr, Pr, NUM_BR, NUM_FR, NUM_GR, NUM_PR};
use std::fmt;

/// Integer comparison relations for `cmp`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpRel {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
    /// Unsigned less-than.
    Ltu,
    /// Unsigned less-or-equal.
    Leu,
    /// Unsigned greater-than.
    Gtu,
    /// Unsigned greater-or-equal.
    Geu,
}

impl CmpRel {
    /// Evaluates the relation.
    pub fn eval(self, a: u64, b: u64) -> bool {
        match self {
            CmpRel::Eq => a == b,
            CmpRel::Ne => a != b,
            CmpRel::Lt => (a as i64) < (b as i64),
            CmpRel::Le => (a as i64) <= (b as i64),
            CmpRel::Gt => (a as i64) > (b as i64),
            CmpRel::Ge => (a as i64) >= (b as i64),
            CmpRel::Ltu => a < b,
            CmpRel::Leu => a <= b,
            CmpRel::Gtu => a > b,
            CmpRel::Geu => a >= b,
        }
    }

    /// Mnemonic suffix.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpRel::Eq => "eq",
            CmpRel::Ne => "ne",
            CmpRel::Lt => "lt",
            CmpRel::Le => "le",
            CmpRel::Gt => "gt",
            CmpRel::Ge => "ge",
            CmpRel::Ltu => "ltu",
            CmpRel::Leu => "leu",
            CmpRel::Gtu => "gtu",
            CmpRel::Geu => "geu",
        }
    }
}

/// FP comparison relations for `fcmp`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FcmpRel {
    /// Equal (ordered).
    Eq,
    /// Less-than (ordered).
    Lt,
    /// Less-or-equal (ordered).
    Le,
    /// Unordered (either operand NaN).
    Unord,
}

impl FcmpRel {
    /// Evaluates the relation on doubles.
    pub fn eval(self, a: f64, b: f64) -> bool {
        match self {
            FcmpRel::Eq => a == b,
            FcmpRel::Lt => a < b,
            FcmpRel::Le => a <= b,
            FcmpRel::Unord => a.is_nan() || b.is_nan(),
        }
    }
}

/// FP register load/store formats.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FFmt {
    /// `ldfs`/`stfs`: 4 bytes, converted single↔register (f64) format.
    S,
    /// `ldfd`/`stfd`: 8 bytes, double format.
    D,
    /// `ldf8`/`stf8`: 8 raw bytes into/out of the significand — the
    /// format used for packed (SIMD) data.
    Raw,
}

impl FFmt {
    /// Access width in bytes.
    pub fn bytes(self) -> u32 {
        match self {
            FFmt::S => 4,
            FFmt::D | FFmt::Raw => 8,
        }
    }
}

/// `setf`/`getf` transfer kinds.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FXfer {
    /// Raw significand bits.
    Sig,
    /// Single: GR low 32 bits as `f32`, converted to register format.
    S,
    /// Double: GR 64 bits as `f64` bit pattern.
    D,
}

/// A branch target.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Target {
    /// An unresolved assembler label (must be patched before execution).
    Label(u32),
    /// An absolute (bundle-aligned) address.
    Abs(u64),
    /// Indirect through a branch register.
    Reg(Br),
}

/// Execution unit classes for dispersal.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Unit {
    /// Memory unit.
    M,
    /// Integer unit.
    I,
    /// Floating-point unit.
    F,
    /// Branch unit.
    B,
    /// Long-immediate (occupies I+X slots of an MLX bundle).
    L,
    /// A-type: may issue on either M or I.
    A,
}

/// A register reference, for generic def/use walking.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Reg {
    /// General register.
    G(Gr),
    /// FP register.
    F(Fr),
    /// Predicate register.
    P(Pr),
    /// Branch register.
    B(Br),
}

// The cycle model keeps one flat operand-ready array,
// `GR | FR | PR | BR | NONE`; these are the first entries of each file.
const SB_GR: u16 = 0;
const SB_FR: u16 = SB_GR + NUM_GR;
const SB_PR: u16 = SB_FR + NUM_FR;
const SB_BR: u16 = SB_PR + NUM_PR;
/// A scoreboard entry nothing ever writes: pads the unused read slots
/// of a [`SlotMeta`] so the reader needs no count.
pub(crate) const SB_NONE: u16 = SB_BR + NUM_BR as u16;
/// Number of scoreboard entries.
pub(crate) const SB_LEN: usize = SB_NONE as usize + 1;
// `SlotMeta::key` gives an entry 9 bits.
const _: () = assert!(SB_LEN <= 1 << 9);

impl Reg {
    /// This register's entry in the flat scoreboard.
    ///
    /// # Panics
    ///
    /// Panics if the register is virtual.
    pub(crate) fn sb_index(self) -> u16 {
        match self {
            Reg::G(r) => SB_GR + r.phys() as u16,
            Reg::F(r) => SB_FR + r.phys() as u16,
            Reg::P(r) => SB_PR + r.phys() as u16,
            Reg::B(r) => SB_BR + r.phys() as u16,
        }
    }
}

/// Result-latency class of an operation. A class, not a cycle count:
/// code is installed before the machine (and its `Timing`) exists, so
/// the machine resolves classes to cycles itself.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LatClass {
    /// Single-cycle integer/predicate result.
    One,
    /// Fixed two-cycle result (`mov` to/from a branch register, `fcmp`).
    Two,
    /// Integer load-to-use.
    Ld,
    /// FP load-to-use.
    Ldf,
    /// FP arithmetic (and `xma`).
    Fp,
    /// `getf`/`setf` cross-file transfer.
    Xfer,
}

impl LatClass {
    /// Every class, in discriminant order (`ALL[c as usize] == c`).
    pub const ALL: [LatClass; 6] = [
        LatClass::One,
        LatClass::Two,
        LatClass::Ld,
        LatClass::Ldf,
        LatClass::Fp,
        LatClass::Xfer,
    ];
}

/// Everything the cycle model needs to know about one slot — a pure
/// function of the instruction ([`Inst::slot_meta`]), so the code arena
/// computes it once at install time and the machine never re-derives
/// it per executed slot. Opaque outside this crate: derive it, hand it
/// to [`crate::IssueModel::account`], compare it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SlotMeta {
    /// Scoreboard entries read: the qualifying predicate first, then
    /// the source operands; unused slots hold [`SB_NONE`].
    pub(crate) reads: [u16; 4],
    /// Scoreboard entries written, in operand order (the first
    /// `nwrites` are valid).
    pub(crate) writes: [u16; 2],
    /// Number of valid `writes`.
    pub(crate) nwrites: u8,
    /// Latency class of every write.
    pub(crate) lat: LatClass,
    /// Dispersal unit.
    pub(crate) unit: Unit,
    /// A taken branch from this slot pays the indirect-branch bubble
    /// (`br.ret`, `br` through a register) rather than the plain one.
    pub(crate) indirect: bool,
    /// The slot is a `nop` (padding the bundler put there).
    pub(crate) nop: bool,
}

impl SlotMeta {
    /// The metadata packed into one word (9 bits per scoreboard entry,
    /// 2 + 3 + 3 + 1 + 1 for the rest) — an injective key for interning.
    pub(crate) fn key(&self) -> u64 {
        let mut k = 0u64;
        for &r in self.reads.iter().chain(&self.writes) {
            debug_assert!((r as usize) < SB_LEN);
            k = k << 9 | r as u64;
        }
        k = k << 2 | self.nwrites as u64;
        k = k << 3 | self.lat as u64;
        k = k << 3 | self.unit as u64;
        k = k << 1 | self.indirect as u64;
        k << 1 | self.nop as u64
    }
}

/// One Itanium instruction: a qualifying predicate plus an operation.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Inst {
    /// Qualifying predicate; the instruction is a no-op when false.
    /// `p0` (always true) for unpredicated instructions.
    pub qp: Pr,
    /// The operation.
    pub op: Op,
}

// Every code-arena slot is an `Inst`: folding a variant must not grow it.
const _: () = assert!(std::mem::size_of::<Op>() == 24);
const _: () = assert!(std::mem::size_of::<Inst>() == 32);

impl Inst {
    /// An unpredicated instruction.
    pub fn new(op: Op) -> Inst {
        Inst {
            qp: crate::regs::P0,
            op,
        }
    }

    /// A predicated instruction.
    pub fn pred(qp: Pr, op: Op) -> Inst {
        Inst { qp, op }
    }

    /// Derives this slot's issue metadata. This is the one definition
    /// of what a slot reads, writes, occupies and costs: the code arena
    /// caches its result per slot, the machine consumes the cache, and
    /// the hot scheduler prices candidate code with it.
    ///
    /// # Panics
    ///
    /// Panics if a register is virtual.
    pub fn slot_meta(&self) -> SlotMeta {
        let props = self.op.props();
        let mut m = SlotMeta {
            reads: [SB_NONE; 4],
            writes: [SB_NONE; 2],
            nwrites: 0,
            lat: props.lat,
            unit: props.unit,
            indirect: props.indirect,
            nop: props.nop,
        };
        // The qualifying predicate is a read (of `p0` too).
        m.reads[0] = Reg::P(self.qp).sb_index();
        let mut nreads = 1;
        self.op.visit_regs(|reg, is_def| {
            if is_def {
                m.writes[m.nwrites as usize] = reg.sb_index();
                m.nwrites += 1;
            } else {
                m.reads[nreads] = reg.sb_index();
                nreads += 1;
            }
        });
        m
    }
}

/// A source operand that may be an immediate: the first operand of the
/// ALU ops ([`Op::Add`] …) and [`Op::Cmp`], the count of [`Op::Shift`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Src {
    /// A general register.
    Reg(Gr),
    /// An immediate (sign-extended).
    Imm(i64),
}

/// The operation of [`Op::Shift`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ShiftKind {
    /// `shl`: counts ≥ 64 yield 0.
    Shl,
    /// `shr`: arithmetic (sign-propagating).
    Shr,
    /// `shr.u`: logical.
    ShrU,
}

/// The operation of [`Op::Fma`] and [`Op::Fpma`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FmaKind {
    /// `a×b + c`.
    Fma,
    /// `a×b − c`.
    Fms,
    /// `−a×b + c`.
    Fnma,
}

/// The operation part of an instruction.
///
/// Each variant's doc gives the assembly syntax its fields follow.
/// Semantics notes live with the machine ([`crate::machine`]); encoding
/// fidelity notes (which real instruction each variant models) are on
/// the variants.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Op {
    // ----- A-type (M or I unit) -----
    /// `add d = a, b`; with an immediate `a`, `adds`/`addl d = imm, b`
    /// (so `mov d = imm` is `b = r0`). Every ALU op takes an immediate
    /// first operand this way (`imm8`; the machine takes any width). The
    /// six stay apart rather than one variant with a kind: the machine
    /// would pay a second dispatch on every ALU slot (EXPERIMENTS.md).
    Add { d: Gr, a: Src, b: Gr },
    /// `sub d = a, b`; `sub d = imm8, b` is `imm − b`.
    Sub { d: Gr, a: Src, b: Gr },
    /// `and d = a, b`.
    And { d: Gr, a: Src, b: Gr },
    /// `or d = a, b`.
    Or { d: Gr, a: Src, b: Gr },
    /// `xor d = a, b`.
    Xor { d: Gr, a: Src, b: Gr },
    /// `andcm d = a, b`: `a & !b`.
    AndCm { d: Gr, a: Src, b: Gr },
    /// `shladd d = a, count, b`: `(a << count) + b`, count 1-4.
    Shladd { d: Gr, a: Gr, count: u8, b: Gr },
    /// `cmp.rel pt, pf = a, b` (`a` may be an `imm8`): `pt` is set to
    /// the relation, `pf` to its complement.
    Cmp {
        rel: CmpRel,
        pt: Pr,
        pf: Pr,
        a: Src,
        b: Gr,
    },
    /// `tbit.z/nz pt, pf = r, pos`: `pt` is set to bit `pos` of `r`,
    /// `pf` to its complement.
    Tbit { pt: Pr, pf: Pr, r: Gr, pos: u8 },
    /// Parallel add on `sz`-byte lanes (`padd1/2/4 d = a, b`); with
    /// `sub`, parallel subtract (`psub1/2/4`).
    Padd {
        sub: bool,
        sz: u8,
        d: Gr,
        a: Gr,
        b: Gr,
    },
    /// Parallel 16-bit multiply, low halves (`pmpyshr2 d = a, b, 0`).
    Pmpy2 { d: Gr, a: Gr, b: Gr },
    // ----- I-type -----
    /// `shl`/`shr`/`shr.u d = a, count`, by `kind`; the count is an
    /// immediate (0-63) or a register (counts ≥ 64 shift everything
    /// out).
    Shift {
        kind: ShiftKind,
        d: Gr,
        a: Gr,
        count: Src,
    },
    /// `extr`/`extr.u d = a, pos, len` (sign-extends the field when
    /// `signed`).
    Extr {
        d: Gr,
        a: Gr,
        pos: u8,
        len: u8,
        signed: bool,
    },
    /// `dep d = src, target, pos, len`: the low `len` bits of `src`
    /// deposited at `pos` into `target`.
    Dep {
        d: Gr,
        src: Gr,
        target: Gr,
        pos: u8,
        len: u8,
    },
    /// `dep.z d = src, pos, len` (deposit into zero).
    DepZ { d: Gr, src: Gr, pos: u8, len: u8 },
    /// `zxt1/2/4 d = a`, or with `signed` `sxt1/2/4`; `size` is the
    /// width in bytes.
    Xt {
        signed: bool,
        d: Gr,
        a: Gr,
        size: u8,
    },
    /// `popcnt d = a`.
    Popcnt { d: Gr, a: Gr },
    /// `mov b = r`.
    MovToBr { b: Br, r: Gr },
    /// `mov d = b`.
    MovFromBr { d: Gr, b: Br },
    /// `mov d = ip` (address of the containing bundle).
    MovFromIp { d: Gr },
    // ----- L+X -----
    /// `movl d = imm64` (occupies two slots of an MLX bundle).
    Movl { d: Gr, imm: u64 },
    // ----- M-type -----
    /// `ld1/2/4/8[.s] d = [addr]`, `sz` bytes. With `spec` (`ld.s`),
    /// faults are deferred to the destination NaT bit (control
    /// speculation).
    Ld { sz: u8, d: Gr, addr: Gr, spec: bool },
    /// `st1/2/4/8 [addr] = val`, `sz` bytes.
    St { sz: u8, addr: Gr, val: Gr },
    /// `chk.s r, target` — branch to recovery if `r`'s NaT is set.
    ChkS { r: Gr, target: Target },
    /// `ldfs/ldfd/ldf8[.s] f = [addr]`, by `fmt`.
    Ldf {
        fmt: FFmt,
        f: Fr,
        addr: Gr,
        spec: bool,
    },
    /// `stfs/stfd/stf8 [addr] = f`, by `fmt`.
    Stf { fmt: FFmt, f: Fr, addr: Gr },
    /// `setf.sig/s/d f = r`, by `kind`.
    Setf { kind: FXfer, f: Fr, r: Gr },
    /// `getf.sig/s/d d = f`, by `kind`.
    Getf { kind: FXfer, d: Gr, f: Fr },
    /// `mf` — memory fence (a timing no-op here).
    Mf,
    // ----- F-type -----
    /// `fma`/`fms`/`fnma d = a, b, c` (double), by `kind`.
    Fma {
        kind: FmaKind,
        d: Fr,
        a: Fr,
        b: Fr,
        c: Fr,
    },
    /// `fmin`/`fmax d = a, b` (by `max`), or with `parallel`
    /// `fpmin`/`fpmax` on the two f32 lanes of the significands; each
    /// returns `b` on NaN or a tie, like SSE `MINSS`.
    Fminmax {
        max: bool,
        parallel: bool,
        d: Fr,
        a: Fr,
        b: Fr,
    },
    /// `fcmp.rel pt, pf = a, b`: `pt` is set to the relation, `pf` to
    /// its complement.
    Fcmp {
        rel: FcmpRel,
        pt: Pr,
        pf: Pr,
        a: Fr,
        b: Fr,
    },
    /// `fcvt.fx[.trunc] d = a` — FP to signed integer (in the
    /// significand), truncating toward zero when `trunc` and rounding
    /// to nearest otherwise.
    FcvtFx { d: Fr, a: Fr, trunc: bool },
    /// `fcvt.xf d = a` — signed integer (significand) to FP.
    FcvtXf { d: Fr, a: Fr },
    /// `fmerge.s d = a, b` — sign of `a`, exponent+significand of `b`
    /// (`fmerge.s d = f0, a` is `fabs`, `fmerge.s d = a, a` a copy);
    /// with `neg`, `fmerge.ns` takes the negated sign of `a`
    /// (`fmerge.ns d = a, a` is `fneg`).
    Fmerge { neg: bool, d: Fr, a: Fr, b: Fr },
    /// `frcpa d, p = a, b` — reciprocal approximation of `b` (~8.8 bits;
    /// `a` only matters for special cases) and a predicate telling
    /// software whether to run the Newton-Raphson refinement.
    Frcpa { d: Fr, p: Pr, a: Fr, b: Fr },
    /// `frsqrta d, p = a` — reciprocal square root approximation.
    Frsqrta { d: Fr, p: Pr, a: Fr },
    /// Exact square root. **Modeling substitution**: real Itanium has no
    /// FP sqrt instruction (software uses `frsqrta` + refinement); we
    /// provide the exact operation so the x87 `FSQRT` translation is
    /// bit-identical to the oracle. See DESIGN.md.
    Fsqrt { d: Fr, a: Fr },
    /// `fnorm.s d = a` — normalize/round to single precision (the
    /// sequence scalar-SSE translations use to match IA-32's per-op
    /// single rounding).
    FnormS { d: Fr, a: Fr },
    /// `fpma`/`fpms`/`fpnma d = a, b, c`, by `kind` — parallel FP
    /// multiply-add on the two f32 lanes of the significands.
    Fpma {
        kind: FmaKind,
        d: Fr,
        a: Fr,
        b: Fr,
        c: Fr,
    },
    /// Parallel divide `d = a / b` on 2×f32 lanes. **Modeling
    /// substitution** (real code uses `fprcpa` + refinement); exactness
    /// keeps `DIVPS` bit-identical to the oracle. See DESIGN.md.
    Fpdiv { d: Fr, a: Fr, b: Fr },
    /// `xma.l/hu d = a, b, c` — integer multiply-add on significands;
    /// `high` takes the high 64 bits of the unsigned product.
    Xma {
        d: Fr,
        a: Fr,
        b: Fr,
        c: Fr,
        high: bool,
    },
    // ----- B-type -----
    /// `br.cond target` (unconditional when `qp` is `p0`).
    Br { target: Target },
    /// `br.call b_save = target` — saves the return address (next
    /// bundle) in the link register `b_save`.
    BrCall { b_save: Br, target: Target },
    /// `br.ret b` / indirect branch through `b`.
    BrRet { b: Br },
    /// `nop.m/i/f/b` (the unit it fills is chosen by the bundler).
    Nop { unit: Unit },
}

/// What an op is apart from its operands: one row of [`Op::props`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Props {
    /// The execution unit class the op needs.
    pub unit: Unit,
    /// The latency class of its results.
    pub lat: LatClass,
    /// Accesses memory (the scheduler's ordering rules).
    pub mem: bool,
    /// Writes memory (never reordered across commit points).
    pub store: bool,
    /// Any branch, `chk.s` included (it transfers control on failure).
    pub branch: bool,
    /// Execution may fault (a non-speculative memory access).
    pub can_fault: bool,
    /// A taken branch pays the indirect-branch bubble (`br.ret`, `br`
    /// through a register) rather than the plain one.
    pub indirect: bool,
    /// A pure function of its register sources — and, for a
    /// non-speculative load, of memory — with one general-register
    /// result, so value numbering may merge two instances.
    pub pure: bool,
    /// Orders memory without reading or writing any (`mf`), so dead-code
    /// elimination keeps it.
    pub fence: bool,
    /// A `nop` (padding the bundler put there).
    pub nop: bool,
}

/// One operand of an op, as [`Op::operands_mut`] hands it out.
#[derive(Debug)]
pub enum Operand<'a> {
    /// A register the op reads.
    Use(RegMut<'a>),
    /// A register the op writes.
    Def(RegMut<'a>),
    /// The branch target; through a register it is a use of that
    /// register.
    Target(&'a mut Target),
}

/// A register operand, in place.
#[derive(Debug)]
pub enum RegMut<'a> {
    /// General register.
    G(&'a mut Gr),
    /// FP register.
    F(&'a mut Fr),
    /// Predicate register.
    P(&'a mut Pr),
    /// Branch register.
    B(&'a mut Br),
}

impl RegMut<'_> {
    /// The register.
    pub fn get(&self) -> Reg {
        match self {
            RegMut::G(r) => Reg::G(**r),
            RegMut::F(r) => Reg::F(**r),
            RegMut::P(r) => Reg::P(**r),
            RegMut::B(r) => Reg::B(**r),
        }
    }

    /// Replaces the register.
    ///
    /// # Panics
    ///
    /// Panics if `to` is of another register file.
    pub fn set(&mut self, to: Reg) {
        match (self, to) {
            (RegMut::G(r), Reg::G(x)) => **r = x,
            (RegMut::F(r), Reg::F(x)) => **r = x,
            (RegMut::P(r), Reg::P(x)) => **r = x,
            (RegMut::B(r), Reg::B(x)) => **r = x,
            _ => panic!("register class changed in map_regs"),
        }
    }
}

impl<'a> Operand<'a> {
    /// The register this operand names and whether the op writes it.
    pub fn reg(self) -> Option<(RegMut<'a>, bool)> {
        match self {
            Operand::Use(r) => Some((r, false)),
            Operand::Def(r) => Some((r, true)),
            Operand::Target(Target::Reg(b)) => Some((RegMut::B(b), false)),
            Operand::Target(_) => None,
        }
    }
}

/// A field [`Op::operands_mut`] hands out: a register, an operand that
/// may be an immediate, or a branch target.
trait Field {
    fn operand(&mut self, def: bool) -> Option<Operand<'_>>;
}

macro_rules! reg_field {
    ($($ty:ty => $file:ident),*) => {$(
        impl Field for $ty {
            fn operand(&mut self, def: bool) -> Option<Operand<'_>> {
                let r = RegMut::$file(self);
                Some(if def { Operand::Def(r) } else { Operand::Use(r) })
            }
        }
    )*};
}
reg_field!(Gr => G, Fr => F, Pr => P, Br => B);

impl Field for Src {
    fn operand(&mut self, def: bool) -> Option<Operand<'_>> {
        match self {
            Src::Reg(r) => r.operand(def),
            Src::Imm(_) => None,
        }
    }
}

impl Field for Target {
    fn operand(&mut self, _def: bool) -> Option<Operand<'_>> {
        Some(Operand::Target(self))
    }
}

impl Op {
    /// What this op is apart from its operands: the one table `unit`,
    /// `lat_class`, the `is_*` tests, [`Inst::slot_meta`] and the hot
    /// optimizer's value numbering and dead-code elimination read.
    #[inline]
    pub fn props(&self) -> Props {
        use LatClass::{Fp, Ld as LdLat, Ldf as LdfLat, One, Two, Xfer};
        use Op::*;
        use Unit::{A, B, F, I, L, M};
        const MEM: u8 = 1;
        const STORE: u8 = 1 << 1;
        const BRANCH: u8 = 1 << 2;
        const FAULT: u8 = 1 << 3;
        const INDIRECT: u8 = 1 << 4;
        const PURE: u8 = 1 << 5;
        const FENCE: u8 = 1 << 6;
        const NOP: u8 = 1 << 7;
        // A speculative access defers its fault to a NaT bit.
        let unless = |spec: bool, bits: u8| if spec { 0 } else { bits };
        let (unit, lat, bits) = match *self {
            Add { .. } | Sub { .. } | And { .. } | Or { .. } | Xor { .. } | AndCm { .. } => {
                (A, One, PURE)
            }
            Shladd { .. } => (A, One, PURE),
            Cmp { .. } => (A, One, 0),
            // `chk.s` may issue on M or I.
            ChkS { .. } => (A, One, BRANCH),
            Shift { .. } | Extr { .. } | Dep { .. } | DepZ { .. } => (I, One, PURE),
            Xt { .. } | Popcnt { .. } => (I, One, PURE),
            Tbit { .. } | Padd { .. } | Pmpy2 { .. } | MovFromIp { .. } => (I, One, 0),
            MovToBr { .. } | MovFromBr { .. } => (I, Two, 0),
            Movl { .. } => (L, One, PURE),
            Ld { spec, .. } => (M, LdLat, MEM | unless(spec, FAULT | PURE)),
            Ldf { spec, .. } => (M, LdfLat, MEM | unless(spec, FAULT)),
            St { .. } | Stf { .. } => (M, One, MEM | STORE | FAULT),
            Setf { .. } | Getf { .. } => (M, Xfer, 0),
            Mf => (M, One, FENCE),
            Fcmp { .. } => (F, Two, 0),
            Fma { .. } | Fminmax { .. } | FcvtFx { .. } | FcvtXf { .. } | Fmerge { .. } => {
                (F, Fp, 0)
            }
            Frcpa { .. } | Frsqrta { .. } | Fsqrt { .. } | FnormS { .. } => (F, Fp, 0),
            Fpma { .. } | Fpdiv { .. } | Xma { .. } => (F, Fp, 0),
            Br {
                target: Target::Reg(_),
            }
            | BrRet { .. } => (B, One, BRANCH | INDIRECT),
            Br { .. } | BrCall { .. } => (B, One, BRANCH),
            Nop { unit } => (unit, One, NOP),
        };
        let has = |bit: u8| bits & bit != 0;
        Props {
            unit,
            lat,
            mem: has(MEM),
            store: has(STORE),
            branch: has(BRANCH),
            can_fault: has(FAULT),
            indirect: has(INDIRECT),
            pure: has(PURE),
            fence: has(FENCE),
            nop: has(NOP),
        }
    }

    /// The execution unit class this operation needs.
    #[inline]
    pub fn unit(&self) -> Unit {
        self.props().unit
    }

    /// The latency class of this operation's results.
    #[inline]
    pub fn lat_class(&self) -> LatClass {
        self.props().lat
    }

    /// True if this is any branch (including `chk.s`, which transfers
    /// control on failure).
    #[inline]
    pub fn is_branch(&self) -> bool {
        self.props().branch
    }

    /// True for memory accesses (used by the scheduler's ordering rules).
    #[inline]
    pub fn is_mem(&self) -> bool {
        self.props().mem
    }

    /// True for stores (never reordered across commit points).
    #[inline]
    pub fn is_store(&self) -> bool {
        self.props().store
    }

    /// True if execution of this op may fault (memory or deferred check).
    #[inline]
    pub fn can_fault(&self) -> bool {
        self.props().can_fault
    }

    /// The one operand walk: hands `f` every register operand and the
    /// branch target, in place — the uses first, in the order the
    /// assembly syntax names them (`st [addr] = val`, `cmp pt, pf = a,
    /// b`, `br.call b = target`), then the defs likewise. The cold
    /// lowerer's FIFO register choice and the allocator's binding order
    /// follow this order. An immediate operand is not handed out.
    pub fn operands_mut(&mut self, mut f: impl FnMut(Operand<'_>)) {
        use Op::*;
        macro_rules! walk {
            ($($u:expr),* ; $($d:expr),*) => {{
                $(if let Some(o) = Field::operand($u, false) { f(o) })*
                $(if let Some(o) = Field::operand($d, true) { f(o) })*
            }};
        }
        match self {
            Add { d, a, b }
            | Sub { d, a, b }
            | And { d, a, b }
            | Or { d, a, b }
            | Xor { d, a, b }
            | AndCm { d, a, b } => walk!(a, b; d),
            Shladd { d, a, b, .. } | Padd { d, a, b, .. } | Pmpy2 { d, a, b } => walk!(a, b; d),
            Cmp { pt, pf, a, b, .. } => walk!(a, b; pt, pf),
            Tbit { pt, pf, r, .. } => walk!(r; pt, pf),
            Shift { d, a, count, .. } => walk!(a, count; d),
            Extr { d, a, .. } | Xt { d, a, .. } | Popcnt { d, a } => walk!(a; d),
            Dep { d, src, target, .. } => walk!(src, target; d),
            DepZ { d, src, .. } => walk!(src; d),
            MovToBr { b, r } => walk!(r; b),
            MovFromBr { d, b } => walk!(b; d),
            MovFromIp { d } | Movl { d, .. } => walk!(; d),
            Ld { d, addr, .. } => walk!(addr; d),
            St { addr, val, .. } => walk!(addr, val;),
            ChkS { r, target } => walk!(r, target;),
            Ldf { f: fr, addr, .. } => walk!(addr; fr),
            Stf { f: fr, addr, .. } => walk!(addr, fr;),
            Setf { f: fr, r, .. } => walk!(r; fr),
            Getf { d, f: fr, .. } => walk!(fr; d),
            Fma { d, a, b, c, .. } | Fpma { d, a, b, c, .. } | Xma { d, a, b, c, .. } => {
                walk!(a, b, c; d)
            }
            Fminmax { d, a, b, .. } | Fmerge { d, a, b, .. } | Fpdiv { d, a, b } => walk!(a, b; d),
            Fcmp { pt, pf, a, b, .. } => walk!(a, b; pt, pf),
            FcvtFx { d, a, .. } | FcvtXf { d, a } | Fsqrt { d, a } | FnormS { d, a } => {
                walk!(a; d)
            }
            Frcpa { d, p, a, b } => walk!(a, b; d, p),
            Frsqrta { d, p, a } => walk!(a; d, p),
            Br { target } => walk!(target;),
            BrCall { b_save, target } => walk!(target; b_save),
            BrRet { b } => walk!(b;),
            Mf | Nop { .. } => {}
        }
    }

    /// Walks every register operand in [`Op::operands_mut`] order;
    /// `cb(reg, is_def)`.
    pub fn visit_regs(&self, mut cb: impl FnMut(Reg, bool)) {
        let mut op = *self;
        op.operands_mut(|o| {
            if let Some((r, is_def)) = o.reg() {
                cb(r.get(), is_def);
            }
        });
    }

    /// Collects the registers read (includes the qualifying predicate
    /// only via [`Inst`]-level helpers).
    pub fn uses(&self) -> Vec<Reg> {
        let mut v = Vec::with_capacity(4);
        self.visit_regs(|r, is_def| {
            if !is_def {
                v.push(r);
            }
        });
        v
    }

    /// Collects the registers written.
    pub fn defs(&self) -> Vec<Reg> {
        let mut v = Vec::with_capacity(2);
        self.visit_regs(|r, is_def| {
            if is_def {
                v.push(r);
            }
        });
        v
    }

    /// Rewrites every register operand through `f`, in
    /// [`Op::visit_regs`] order (used by renaming and virtual-register
    /// allocation). `f` must preserve the register class.
    pub fn map_regs(&mut self, mut f: impl FnMut(Reg, bool) -> Reg) {
        self.operands_mut(|o| {
            if let Some((mut r, is_def)) = o.reg() {
                r.set(f(r.get(), is_def));
            }
        });
    }

    /// The branch target, if this is a branch/check.
    pub fn target(&self) -> Option<Target> {
        let mut target = None;
        let mut op = *self;
        op.operands_mut(|o| {
            if let Operand::Target(t) = o {
                target = Some(*t);
            }
        });
        target
    }

    /// Rewrites the branch target (label patching).
    ///
    /// # Panics
    ///
    /// Panics if the op has no target.
    pub fn set_target(&mut self, to: Target) {
        let mut found = false;
        self.operands_mut(|o| {
            if let Operand::Target(t) = o {
                *t = to;
                found = true;
            }
        });
        assert!(found, "set_target on a non-branch");
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.qp.0 != 0 {
            write!(f, "({}) ", self.qp)?;
        }
        write!(f, "{}", self.op)
    }
}

impl fmt::Display for Src {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Src::Reg(r) => write!(f, "{r}"),
            Src::Imm(imm) => write!(f, "{imm}"),
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Op::*;
        fn t(x: &Target) -> String {
            match x {
                Target::Label(l) => format!("L{l}"),
                Target::Abs(a) => format!("{a:#x}"),
                Target::Reg(b) => b.to_string(),
            }
        }
        fn fma(kind: FmaKind) -> &'static str {
            match kind {
                FmaKind::Fma => "ma",
                FmaKind::Fms => "ms",
                FmaKind::Fnma => "nma",
            }
        }
        match self {
            Add { d, a, b } => {
                let m = if matches!(a, Src::Imm(_)) {
                    "adds"
                } else {
                    "add"
                };
                write!(f, "{m} {d} = {a}, {b}")
            }
            Sub { d, a, b } => write!(f, "sub {d} = {a}, {b}"),
            And { d, a, b } => write!(f, "and {d} = {a}, {b}"),
            Or { d, a, b } => write!(f, "or {d} = {a}, {b}"),
            Xor { d, a, b } => write!(f, "xor {d} = {a}, {b}"),
            AndCm { d, a, b } => write!(f, "andcm {d} = {a}, {b}"),
            Shladd { d, a, count, b } => write!(f, "shladd {d} = {a}, {count}, {b}"),
            Cmp { rel, pt, pf, a, b } => {
                write!(f, "cmp.{} {pt}, {pf} = {a}, {b}", rel.mnemonic())
            }
            Tbit { pt, pf, r, pos } => write!(f, "tbit {pt}, {pf} = {r}, {pos}"),
            Padd { sub, sz, d, a, b } => {
                let m = if *sub { "psub" } else { "padd" };
                write!(f, "{m}{sz} {d} = {a}, {b}")
            }
            Pmpy2 { d, a, b } => write!(f, "pmpyshr2 {d} = {a}, {b}, 0"),
            Shift { kind, d, a, count } => {
                let m = match kind {
                    ShiftKind::Shl => "shl",
                    ShiftKind::Shr => "shr",
                    ShiftKind::ShrU => "shr.u",
                };
                write!(f, "{m} {d} = {a}, {count}")
            }
            Extr {
                d,
                a,
                pos,
                len,
                signed,
            } => write!(
                f,
                "extr{} {d} = {a}, {pos}, {len}",
                if *signed { "" } else { ".u" }
            ),
            Dep {
                d,
                src,
                target,
                pos,
                len,
            } => write!(f, "dep {d} = {src}, {target}, {pos}, {len}"),
            DepZ { d, src, pos, len } => write!(f, "dep.z {d} = {src}, {pos}, {len}"),
            Xt { signed, d, a, size } => {
                let m = if *signed { "sxt" } else { "zxt" };
                write!(f, "{m}{size} {d} = {a}")
            }
            Popcnt { d, a } => write!(f, "popcnt {d} = {a}"),
            MovToBr { b, r } => write!(f, "mov {b} = {r}"),
            MovFromBr { d, b } => write!(f, "mov {d} = {b}"),
            MovFromIp { d } => write!(f, "mov {d} = ip"),
            Movl { d, imm } => write!(f, "movl {d} = {imm:#x}"),
            Ld { sz, d, addr, spec } => {
                write!(f, "ld{sz}{} {d} = [{addr}]", if *spec { ".s" } else { "" })
            }
            St { sz, addr, val } => write!(f, "st{sz} [{addr}] = {val}"),
            ChkS { r, target } => write!(f, "chk.s {r}, {}", t(target)),
            Ldf {
                fmt,
                f: fr,
                addr,
                spec,
            } => {
                let m = match fmt {
                    FFmt::S => "ldfs",
                    FFmt::D => "ldfd",
                    FFmt::Raw => "ldf8",
                };
                write!(f, "{m}{} {fr} = [{addr}]", if *spec { ".s" } else { "" })
            }
            Stf { fmt, f: fr, addr } => {
                let m = match fmt {
                    FFmt::S => "stfs",
                    FFmt::D => "stfd",
                    FFmt::Raw => "stf8",
                };
                write!(f, "{m} [{addr}] = {fr}")
            }
            Setf { kind, f: fr, r } => {
                let k = match kind {
                    FXfer::Sig => "sig",
                    FXfer::S => "s",
                    FXfer::D => "d",
                };
                write!(f, "setf.{k} {fr} = {r}")
            }
            Getf { kind, d, f: fr } => {
                let k = match kind {
                    FXfer::Sig => "sig",
                    FXfer::S => "s",
                    FXfer::D => "d",
                };
                write!(f, "getf.{k} {d} = {fr}")
            }
            Mf => write!(f, "mf"),
            Fma { kind, d, a, b, c } => write!(f, "f{} {d} = {a}, {b}, {c}", fma(*kind)),
            Fminmax {
                max,
                parallel,
                d,
                a,
                b,
            } => {
                let p = if *parallel { "p" } else { "" };
                let m = if *max { "max" } else { "min" };
                write!(f, "f{p}{m} {d} = {a}, {b}")
            }
            Fcmp { rel, pt, pf, a, b } => write!(f, "fcmp.{rel:?} {pt}, {pf} = {a}, {b}"),
            FcvtFx { d, a, trunc } => {
                write!(f, "fcvt.fx{} {d} = {a}", if *trunc { ".trunc" } else { "" })
            }
            FcvtXf { d, a } => write!(f, "fcvt.xf {d} = {a}"),
            Fmerge { neg, d, a, b } => {
                write!(f, "fmerge.{} {d} = {a}, {b}", if *neg { "ns" } else { "s" })
            }
            Frcpa { d, p, a, b } => write!(f, "frcpa {d}, {p} = {a}, {b}"),
            Frsqrta { d, p, a } => write!(f, "frsqrta {d}, {p} = {a}"),
            Fsqrt { d, a } => write!(f, "fsqrt* {d} = {a}"),
            FnormS { d, a } => write!(f, "fnorm.s {d} = {a}"),
            Fpma { kind, d, a, b, c } => write!(f, "fp{} {d} = {a}, {b}, {c}", fma(*kind)),
            Fpdiv { d, a, b } => write!(f, "fpdiv* {d} = {a}, {b}"),
            Xma { d, a, b, c, high } => write!(
                f,
                "xma.{} {d} = {a}, {b}, {c}",
                if *high { "hu" } else { "l" }
            ),
            Br { target } => write!(f, "br {}", t(target)),
            BrCall { b_save, target } => write!(f, "br.call {b_save} = {}", t(target)),
            BrRet { b } => write!(f, "br.ret {b}"),
            Nop { unit } => write!(f, "nop.{unit:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regs::*;

    #[test]
    fn units() {
        assert_eq!(
            Op::Add {
                d: Gr(3),
                a: Src::Reg(Gr(1)),
                b: Gr(2)
            }
            .unit(),
            Unit::A
        );
        assert_eq!(
            Op::Ld {
                sz: 4,
                d: Gr(3),
                addr: Gr(4),
                spec: false
            }
            .unit(),
            Unit::M
        );
        assert_eq!(
            Op::Fma {
                kind: FmaKind::Fma,
                d: Fr(6),
                a: Fr(2),
                b: Fr(3),
                c: Fr(4)
            }
            .unit(),
            Unit::F
        );
        assert_eq!(
            Op::Br {
                target: Target::Abs(0)
            }
            .unit(),
            Unit::B
        );
        assert_eq!(Op::Movl { d: Gr(3), imm: 0 }.unit(), Unit::L);
    }

    #[test]
    fn slot_meta_names_operands_latency_and_unit() {
        let fma = Inst::pred(
            Pr(6),
            Op::Fma {
                kind: FmaKind::Fma,
                d: Fr(9),
                a: Fr(2),
                b: Fr(3),
                c: Fr(4),
            },
        )
        .slot_meta();
        let f = |n| Reg::F(Fr(n)).sb_index();
        assert_eq!(fma.reads, [Reg::P(Pr(6)).sb_index(), f(2), f(3), f(4)]);
        assert_eq!((fma.writes[0], fma.nwrites), (f(9), 1));
        assert_eq!(
            (fma.lat, fma.unit, fma.indirect),
            (LatClass::Fp, Unit::F, false)
        );

        // Unpredicated slots still read `p0`; unused reads are padded.
        let cmp = Inst::new(Op::Cmp {
            rel: CmpRel::Eq,
            pt: Pr(1),
            pf: Pr(2),
            a: Src::Imm(0),
            b: Gr(7),
        })
        .slot_meta();
        let p = |n| Reg::P(Pr(n)).sb_index();
        assert_eq!(
            cmp.reads,
            [p(0), Reg::G(Gr(7)).sb_index(), SB_NONE, SB_NONE]
        );
        assert_eq!((cmp.writes, cmp.nwrites), ([p(1), p(2)], 2));
        assert_eq!((cmp.lat, cmp.unit), (LatClass::One, Unit::A));

        // Only `br.ret` and register-indirect `br` pay the indirect
        // bubble (an indirect `br.call` does not — part of the model).
        let indirect = |op: Op| Inst::new(op).slot_meta().indirect;
        assert!(indirect(Op::BrRet { b: Br(0) }));
        assert!(indirect(Op::Br {
            target: Target::Reg(Br(6))
        }));
        assert!(!indirect(Op::Br {
            target: Target::Abs(0x40)
        }));
        assert!(!indirect(Op::BrCall {
            b_save: Br(0),
            target: Target::Reg(Br(6))
        }));

        // Distinct metadata, distinct keys; all four files are disjoint.
        assert_ne!(fma.key(), cmp.key());
        let files = [Reg::G(Gr(5)), Reg::F(Fr(5)), Reg::P(Pr(5)), Reg::B(Br(5))];
        for (i, a) in files.iter().enumerate() {
            for b in &files[i + 1..] {
                assert_ne!(a.sb_index(), b.sb_index());
            }
            assert!((a.sb_index() as usize) < SB_LEN - 1);
        }
    }

    #[test]
    fn defs_and_uses() {
        let op = Op::Add {
            d: Gr(3),
            a: Src::Reg(Gr(1)),
            b: Gr(2),
        };
        assert_eq!(op.defs(), vec![Reg::G(Gr(3))]);
        assert_eq!(op.uses(), vec![Reg::G(Gr(1)), Reg::G(Gr(2))]);

        let st = Op::St {
            sz: 4,
            addr: Gr(5),
            val: Gr(6),
        };
        assert!(st.defs().is_empty());
        assert_eq!(st.uses().len(), 2);

        let cmp = Op::Cmp {
            rel: CmpRel::Eq,
            pt: Pr(1),
            pf: Pr(2),
            a: Src::Reg(Gr(1)),
            b: Gr(2),
        };
        assert_eq!(cmp.defs(), vec![Reg::P(Pr(1)), Reg::P(Pr(2))]);
    }

    #[test]
    fn map_regs_renames() {
        let mut op = Op::Add {
            d: Gr(VIRT_BASE),
            a: Src::Reg(Gr(VIRT_BASE + 1)),
            b: Gr(2),
        };
        op.map_regs(|r, _| match r {
            Reg::G(g) if g.is_virtual() => Reg::G(Gr(g.0 - VIRT_BASE + 50)),
            other => other,
        });
        assert_eq!(
            op,
            Op::Add {
                d: Gr(50),
                a: Src::Reg(Gr(51)),
                b: Gr(2)
            }
        );

        // Branch registers are operands too, a register target included.
        let mut call = Op::BrCall {
            b_save: Br(0),
            target: Target::Reg(Br(6)),
        };
        call.map_regs(|r, _| match r {
            Reg::B(b) => Reg::B(Br(b.0 + 1)),
            other => other,
        });
        assert_eq!(
            call,
            Op::BrCall {
                b_save: Br(1),
                target: Target::Reg(Br(7))
            }
        );
    }

    #[test]
    fn classification() {
        assert!(Op::Br {
            target: Target::Abs(0)
        }
        .is_branch());
        assert!(Op::St {
            sz: 4,
            addr: Gr(1),
            val: Gr(2)
        }
        .is_store());
        assert!(Op::Ld {
            sz: 4,
            d: Gr(1),
            addr: Gr(2),
            spec: false
        }
        .can_fault());
        assert!(!Op::Ld {
            sz: 4,
            d: Gr(1),
            addr: Gr(2),
            spec: true
        }
        .can_fault());
    }

    #[test]
    fn targets_are_read_and_patched_through_the_walker() {
        let mut chk = Op::ChkS {
            r: Gr(4),
            target: Target::Label(3),
        };
        assert_eq!(chk.target(), Some(Target::Label(3)));
        chk.set_target(Target::Abs(0x80));
        assert_eq!(chk.target(), Some(Target::Abs(0x80)));
        assert_eq!(Op::BrRet { b: Br(0) }.target(), None);
        assert_eq!(
            Op::Br {
                target: Target::Reg(Br(2))
            }
            .target(),
            Some(Target::Reg(Br(2)))
        );
    }

    #[test]
    #[should_panic(expected = "set_target on a non-branch")]
    fn set_target_needs_a_target() {
        Op::Mf.set_target(Target::Abs(0));
    }

    /// Numbers each variant × operand form: an exhaustive match, so a
    /// new variant does not compile until it has a number here, and
    /// then fails [`every_form_has_one_operand_walk`] until it has a
    /// row in [`every_form`].
    fn form(op: &Op) -> u32 {
        use Op::*;
        // Each ALU op twice: register and immediate first operand.
        let alu = |n: u32, a: &Src| 2 * n + matches!(a, Src::Imm(_)) as u32;
        match op {
            Add { a, .. } => alu(0, a),
            Sub { a, .. } => alu(1, a),
            And { a, .. } => alu(2, a),
            Or { a, .. } => alu(3, a),
            Xor { a, .. } => alu(4, a),
            AndCm { a, .. } => alu(5, a),
            Shladd { .. } => 12,
            Cmp { a: Src::Reg(_), .. } => 13,
            Cmp { a: Src::Imm(_), .. } => 14,
            Tbit { .. } => 15,
            Padd { .. } => 16,
            Pmpy2 { .. } => 17,
            Shift {
                count: Src::Reg(_), ..
            } => 18,
            Shift {
                count: Src::Imm(_), ..
            } => 19,
            Extr { .. } => 20,
            Dep { .. } => 21,
            DepZ { .. } => 22,
            Xt { .. } => 23,
            Popcnt { .. } => 24,
            MovToBr { .. } => 25,
            MovFromBr { .. } => 26,
            MovFromIp { .. } => 27,
            Movl { .. } => 28,
            Ld { .. } => 29,
            St { .. } => 30,
            ChkS { .. } => 31,
            Ldf { .. } => 32,
            Stf { .. } => 33,
            Setf { .. } => 34,
            Getf { .. } => 35,
            Mf => 36,
            Fma { .. } => 37,
            Fminmax { .. } => 38,
            Fcmp { .. } => 39,
            FcvtFx { .. } => 40,
            FcvtXf { .. } => 41,
            Fmerge { .. } => 42,
            Frcpa { .. } => 43,
            Frsqrta { .. } => 44,
            Fsqrt { .. } => 45,
            FnormS { .. } => 46,
            Fpma { .. } => 47,
            Fpdiv { .. } => 48,
            Xma { .. } => 49,
            Br {
                target: Target::Reg(_),
            } => 50,
            Br { .. } => 51,
            BrCall {
                target: Target::Reg(_),
                ..
            } => 52,
            BrCall { .. } => 53,
            BrRet { .. } => 54,
            Nop { .. } => 55,
        }
    }

    /// The number of forms [`form`] tells apart.
    const FORMS: u32 = 56;

    /// One instance of every form, with the registers it reads and then
    /// writes, each in the order the operand walk pins (uses in
    /// assembly order, then defs).
    fn every_form() -> Vec<(Op, Vec<Reg>, Vec<Reg>)> {
        let (g, f, p, b) = (
            |n| Reg::G(Gr(n)),
            |n| Reg::F(Fr(n)),
            |n| Reg::P(Pr(n)),
            |n| Reg::B(Br(n)),
        );
        let alus: [fn(Gr, Src, Gr) -> Op; 6] = [
            |d, a, b| Op::Add { d, a, b },
            |d, a, b| Op::Sub { d, a, b },
            |d, a, b| Op::And { d, a, b },
            |d, a, b| Op::Or { d, a, b },
            |d, a, b| Op::Xor { d, a, b },
            |d, a, b| Op::AndCm { d, a, b },
        ];
        let alu_rows = alus.into_iter().flat_map(|alu| {
            [
                (
                    alu(Gr(1), Src::Reg(Gr(2)), Gr(3)),
                    vec![g(2), g(3)],
                    vec![g(1)],
                ),
                (alu(Gr(1), Src::Imm(5), Gr(3)), vec![g(3)], vec![g(1)]),
            ]
        });
        alu_rows
            .chain([
                (
                    Op::Shladd {
                        d: Gr(1),
                        a: Gr(2),
                        count: 2,
                        b: Gr(3),
                    },
                    vec![g(2), g(3)],
                    vec![g(1)],
                ),
                (
                    Op::Cmp {
                        rel: CmpRel::Lt,
                        pt: Pr(1),
                        pf: Pr(2),
                        a: Src::Reg(Gr(3)),
                        b: Gr(4),
                    },
                    vec![g(3), g(4)],
                    vec![p(1), p(2)],
                ),
                (
                    Op::Cmp {
                        rel: CmpRel::Lt,
                        pt: Pr(1),
                        pf: Pr(2),
                        a: Src::Imm(-1),
                        b: Gr(4),
                    },
                    vec![g(4)],
                    vec![p(1), p(2)],
                ),
                (
                    Op::Tbit {
                        pt: Pr(1),
                        pf: Pr(2),
                        r: Gr(3),
                        pos: 5,
                    },
                    vec![g(3)],
                    vec![p(1), p(2)],
                ),
                (
                    Op::Padd {
                        sub: true,
                        sz: 2,
                        d: Gr(1),
                        a: Gr(2),
                        b: Gr(3),
                    },
                    vec![g(2), g(3)],
                    vec![g(1)],
                ),
                (
                    Op::Pmpy2 {
                        d: Gr(1),
                        a: Gr(2),
                        b: Gr(3),
                    },
                    vec![g(2), g(3)],
                    vec![g(1)],
                ),
                (
                    Op::Shift {
                        kind: ShiftKind::ShrU,
                        d: Gr(1),
                        a: Gr(2),
                        count: Src::Reg(Gr(3)),
                    },
                    vec![g(2), g(3)],
                    vec![g(1)],
                ),
                (
                    Op::Shift {
                        kind: ShiftKind::Shl,
                        d: Gr(1),
                        a: Gr(2),
                        count: Src::Imm(7),
                    },
                    vec![g(2)],
                    vec![g(1)],
                ),
                (
                    Op::Extr {
                        d: Gr(1),
                        a: Gr(2),
                        pos: 3,
                        len: 4,
                        signed: true,
                    },
                    vec![g(2)],
                    vec![g(1)],
                ),
                (
                    Op::Dep {
                        d: Gr(1),
                        src: Gr(2),
                        target: Gr(3),
                        pos: 0,
                        len: 8,
                    },
                    vec![g(2), g(3)],
                    vec![g(1)],
                ),
                (
                    Op::DepZ {
                        d: Gr(1),
                        src: Gr(2),
                        pos: 4,
                        len: 4,
                    },
                    vec![g(2)],
                    vec![g(1)],
                ),
                (
                    Op::Xt {
                        signed: true,
                        d: Gr(1),
                        a: Gr(2),
                        size: 2,
                    },
                    vec![g(2)],
                    vec![g(1)],
                ),
                (Op::Popcnt { d: Gr(1), a: Gr(2) }, vec![g(2)], vec![g(1)]),
                (Op::MovToBr { b: Br(1), r: Gr(2) }, vec![g(2)], vec![b(1)]),
                (Op::MovFromBr { d: Gr(1), b: Br(2) }, vec![b(2)], vec![g(1)]),
                (Op::MovFromIp { d: Gr(1) }, vec![], vec![g(1)]),
                (Op::Movl { d: Gr(1), imm: 9 }, vec![], vec![g(1)]),
                (
                    Op::Ld {
                        sz: 4,
                        d: Gr(1),
                        addr: Gr(2),
                        spec: false,
                    },
                    vec![g(2)],
                    vec![g(1)],
                ),
                (
                    Op::St {
                        sz: 8,
                        addr: Gr(1),
                        val: Gr(2),
                    },
                    vec![g(1), g(2)],
                    vec![],
                ),
                (
                    Op::ChkS {
                        r: Gr(1),
                        target: Target::Label(3),
                    },
                    vec![g(1)],
                    vec![],
                ),
                (
                    Op::Ldf {
                        fmt: FFmt::D,
                        f: Fr(1),
                        addr: Gr(2),
                        spec: true,
                    },
                    vec![g(2)],
                    vec![f(1)],
                ),
                (
                    Op::Stf {
                        fmt: FFmt::S,
                        f: Fr(1),
                        addr: Gr(2),
                    },
                    vec![g(2), f(1)],
                    vec![],
                ),
                (
                    Op::Setf {
                        kind: FXfer::Sig,
                        f: Fr(1),
                        r: Gr(2),
                    },
                    vec![g(2)],
                    vec![f(1)],
                ),
                (
                    Op::Getf {
                        kind: FXfer::D,
                        d: Gr(1),
                        f: Fr(2),
                    },
                    vec![f(2)],
                    vec![g(1)],
                ),
                (Op::Mf, vec![], vec![]),
                (
                    Op::Fma {
                        kind: FmaKind::Fnma,
                        d: Fr(1),
                        a: Fr(2),
                        b: Fr(3),
                        c: Fr(4),
                    },
                    vec![f(2), f(3), f(4)],
                    vec![f(1)],
                ),
                (
                    Op::Fminmax {
                        max: true,
                        parallel: true,
                        d: Fr(1),
                        a: Fr(2),
                        b: Fr(3),
                    },
                    vec![f(2), f(3)],
                    vec![f(1)],
                ),
                (
                    Op::Fcmp {
                        rel: FcmpRel::Le,
                        pt: Pr(1),
                        pf: Pr(2),
                        a: Fr(3),
                        b: Fr(4),
                    },
                    vec![f(3), f(4)],
                    vec![p(1), p(2)],
                ),
                (
                    Op::FcvtFx {
                        d: Fr(1),
                        a: Fr(2),
                        trunc: true,
                    },
                    vec![f(2)],
                    vec![f(1)],
                ),
                (Op::FcvtXf { d: Fr(1), a: Fr(2) }, vec![f(2)], vec![f(1)]),
                (
                    Op::Fmerge {
                        neg: true,
                        d: Fr(1),
                        a: Fr(2),
                        b: Fr(3),
                    },
                    vec![f(2), f(3)],
                    vec![f(1)],
                ),
                (
                    Op::Frcpa {
                        d: Fr(1),
                        p: Pr(2),
                        a: Fr(3),
                        b: Fr(4),
                    },
                    vec![f(3), f(4)],
                    vec![f(1), p(2)],
                ),
                (
                    Op::Frsqrta {
                        d: Fr(1),
                        p: Pr(2),
                        a: Fr(3),
                    },
                    vec![f(3)],
                    vec![f(1), p(2)],
                ),
                (Op::Fsqrt { d: Fr(1), a: Fr(2) }, vec![f(2)], vec![f(1)]),
                (Op::FnormS { d: Fr(1), a: Fr(2) }, vec![f(2)], vec![f(1)]),
                (
                    Op::Fpma {
                        kind: FmaKind::Fms,
                        d: Fr(1),
                        a: Fr(2),
                        b: Fr(3),
                        c: Fr(4),
                    },
                    vec![f(2), f(3), f(4)],
                    vec![f(1)],
                ),
                (
                    Op::Fpdiv {
                        d: Fr(1),
                        a: Fr(2),
                        b: Fr(3),
                    },
                    vec![f(2), f(3)],
                    vec![f(1)],
                ),
                (
                    Op::Xma {
                        d: Fr(1),
                        a: Fr(2),
                        b: Fr(3),
                        c: Fr(4),
                        high: true,
                    },
                    vec![f(2), f(3), f(4)],
                    vec![f(1)],
                ),
                (
                    Op::Br {
                        target: Target::Reg(Br(3)),
                    },
                    vec![b(3)],
                    vec![],
                ),
                (
                    Op::Br {
                        target: Target::Abs(0x40),
                    },
                    vec![],
                    vec![],
                ),
                (
                    Op::BrCall {
                        b_save: Br(1),
                        target: Target::Reg(Br(2)),
                    },
                    vec![b(2)],
                    vec![b(1)],
                ),
                (
                    Op::BrCall {
                        b_save: Br(1),
                        target: Target::Label(4),
                    },
                    vec![],
                    vec![b(1)],
                ),
                (Op::BrRet { b: Br(2) }, vec![b(2)], vec![]),
                (Op::Nop { unit: Unit::I }, vec![], vec![]),
            ])
            .collect()
    }

    #[test]
    fn every_form_has_one_operand_walk() {
        let mut seen = 0u64;
        for (op, reads, writes) in every_form() {
            seen |= 1 << form(&op);
            // The walk reads in the pinned order, then writes.
            let mut visited = Vec::new();
            op.visit_regs(|r, is_def| visited.push((r, is_def)));
            let pinned: Vec<(Reg, bool)> = reads
                .iter()
                .map(|&r| (r, false))
                .chain(writes.iter().map(|&r| (r, true)))
                .collect();
            assert_eq!(visited, pinned, "{op}");
            // An identity rename sees the same operands and changes
            // nothing.
            let mut mapped = Vec::new();
            let mut renamed = op;
            renamed.map_regs(|r, is_def| {
                mapped.push((r, is_def));
                r
            });
            assert_eq!((mapped, renamed), (visited, op), "{op}");
            // The cycle model reads and writes the same registers.
            let meta = Inst::new(op).slot_meta();
            let mut want_reads = [SB_NONE; 4];
            want_reads[0] = Reg::P(P0).sb_index();
            for (i, r) in reads.iter().enumerate() {
                want_reads[1 + i] = r.sb_index();
            }
            let mut want_writes = [SB_NONE; 2];
            for (i, r) in writes.iter().enumerate() {
                want_writes[i] = r.sb_index();
            }
            assert_eq!(
                (meta.reads, meta.writes, meta.nwrites as usize),
                (want_reads, want_writes, writes.len()),
                "{op}"
            );
        }
        assert_eq!(seen, (1 << FORMS) - 1, "a form without a row");
    }

    #[test]
    fn display_smoke() {
        let i = Inst::pred(
            Pr(3),
            Op::Add {
                d: Gr(4),
                a: Src::Imm(-4),
                b: Gr(12),
            },
        );
        assert_eq!(i.to_string(), "(p3) adds r4 = -4, r12");

        // One line per folded form, as each printed before the fold.
        let (d, b) = (Gr(1), Gr(3));
        let shift = |kind, count| Op::Shift {
            kind,
            d: Gr(1),
            a: Gr(2),
            count,
        };
        let fma = |kind, c| Op::Fma {
            kind,
            d: Fr(1),
            a: Fr(2),
            b: Fr(3),
            c: Fr(c),
        };
        let fpma = |kind| Op::Fpma {
            kind,
            d: Fr(1),
            a: Fr(2),
            b: Fr(3),
            c: Fr(4),
        };
        let minmax = |max, parallel| Op::Fminmax {
            max,
            parallel,
            d: Fr(1),
            a: Fr(2),
            b: Fr(3),
        };
        let r2 = Src::Reg(Gr(2));
        let rows = [
            (Op::Add { d, a: r2, b }, "add r1 = r2, r3"),
            (Op::Sub { d, a: r2, b }, "sub r1 = r2, r3"),
            (Op::And { d, a: r2, b }, "and r1 = r2, r3"),
            (Op::Or { d, a: r2, b }, "or r1 = r2, r3"),
            (Op::Xor { d, a: r2, b }, "xor r1 = r2, r3"),
            (Op::AndCm { d, a: r2, b }, "andcm r1 = r2, r3"),
            (
                Op::Add {
                    d,
                    a: Src::Imm(40),
                    b,
                },
                "adds r1 = 40, r3",
            ),
            (
                Op::Sub {
                    d,
                    a: Src::Imm(0),
                    b,
                },
                "sub r1 = 0, r3",
            ),
            (
                Op::And {
                    d,
                    a: Src::Imm(255),
                    b,
                },
                "and r1 = 255, r3",
            ),
            (
                Op::Or {
                    d,
                    a: Src::Imm(1),
                    b,
                },
                "or r1 = 1, r3",
            ),
            (
                Op::Xor {
                    d,
                    a: Src::Imm(-1),
                    b,
                },
                "xor r1 = -1, r3",
            ),
            (
                Op::Cmp {
                    rel: CmpRel::Ltu,
                    pt: Pr(1),
                    pf: Pr(2),
                    a: Src::Reg(Gr(3)),
                    b: Gr(4),
                },
                "cmp.ltu p1, p2 = r3, r4",
            ),
            (
                Op::Cmp {
                    rel: CmpRel::Gt,
                    pt: Pr(1),
                    pf: Pr(2),
                    a: Src::Imm(0),
                    b: Gr(4),
                },
                "cmp.gt p1, p2 = 0, r4",
            ),
            (shift(ShiftKind::Shl, Src::Imm(3)), "shl r1 = r2, 3"),
            (shift(ShiftKind::Shl, Src::Reg(Gr(3))), "shl r1 = r2, r3"),
            (shift(ShiftKind::Shr, Src::Imm(31)), "shr r1 = r2, 31"),
            (shift(ShiftKind::Shr, Src::Reg(Gr(3))), "shr r1 = r2, r3"),
            (shift(ShiftKind::ShrU, Src::Imm(32)), "shr.u r1 = r2, 32"),
            (shift(ShiftKind::ShrU, Src::Reg(Gr(3))), "shr.u r1 = r2, r3"),
            (
                Op::Xt {
                    signed: true,
                    d: Gr(1),
                    a: Gr(2),
                    size: 1,
                },
                "sxt1 r1 = r2",
            ),
            (
                Op::Xt {
                    signed: false,
                    d: Gr(1),
                    a: Gr(2),
                    size: 4,
                },
                "zxt4 r1 = r2",
            ),
            (
                Op::Padd {
                    sub: false,
                    sz: 2,
                    d: Gr(1),
                    a: Gr(2),
                    b: Gr(3),
                },
                "padd2 r1 = r2, r3",
            ),
            (
                Op::Padd {
                    sub: true,
                    sz: 1,
                    d: Gr(1),
                    a: Gr(2),
                    b: Gr(3),
                },
                "psub1 r1 = r2, r3",
            ),
            (fma(FmaKind::Fma, 4), "fma f1 = f2, f3, f4"),
            (fma(FmaKind::Fms, 0), "fms f1 = f2, f3, f0"),
            (fma(FmaKind::Fnma, 1), "fnma f1 = f2, f3, f1"),
            (fpma(FmaKind::Fma), "fpma f1 = f2, f3, f4"),
            (fpma(FmaKind::Fms), "fpms f1 = f2, f3, f4"),
            (minmax(false, false), "fmin f1 = f2, f3"),
            (minmax(true, false), "fmax f1 = f2, f3"),
            (minmax(false, true), "fpmin f1 = f2, f3"),
            (minmax(true, true), "fpmax f1 = f2, f3"),
            (
                Op::Fmerge {
                    neg: false,
                    d: Fr(1),
                    a: Fr(2),
                    b: Fr(3),
                },
                "fmerge.s f1 = f2, f3",
            ),
            (
                Op::Fmerge {
                    neg: true,
                    d: Fr(1),
                    a: Fr(2),
                    b: Fr(2),
                },
                "fmerge.ns f1 = f2, f2",
            ),
        ];
        for (op, text) in rows {
            assert_eq!(op.to_string(), text);
        }
    }
}
