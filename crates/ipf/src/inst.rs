//! The Itanium instruction subset.
//!
//! [`Op`] doubles as the translator's intermediate language: register
//! fields are [`u16`]-backed so the hot optimizer can use virtual
//! registers (≥ [`crate::regs::VIRT_BASE`]) before allocation. The
//! def/use walker ([`Op::visit_regs`]) drives the dependency graph,
//! renaming, and bundling.

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
        let mut m = SlotMeta {
            reads: [SB_NONE; 4],
            writes: [SB_NONE; 2],
            nwrites: 0,
            lat: self.op.lat_class(),
            unit: self.op.unit(),
            indirect: matches!(
                self.op,
                Op::BrRet { .. }
                    | Op::Br {
                        target: Target::Reg(_)
                    }
            ),
            nop: matches!(self.op, Op::Nop { .. }),
        };
        // The qualifying predicate is a read (of `p0` too).
        m.reads[0] = Reg::P(self.qp).sb_index();
        let mut nreads = 1;
        self.op.visit_regs(&mut |reg, is_def| {
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

/// The operation part of an instruction.
///
/// Semantics notes live with the machine ([`crate::machine`]); encoding
/// fidelity notes (which real instruction each variant models) are on
/// the variants.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Op {
    // ----- A-type (M or I unit) -----
    /// `add d = a, b`.
    Add {
        /// Destination.
        d: Gr,
        /// First source.
        a: Gr,
        /// Second source.
        b: Gr,
    },
    /// `sub d = a, b`.
    Sub {
        /// Destination.
        d: Gr,
        /// Minuend.
        a: Gr,
        /// Subtrahend.
        b: Gr,
    },
    /// `adds`/`addl d = imm, a` (also `mov d = imm` with `a = r0`).
    AddImm {
        /// Destination.
        d: Gr,
        /// Immediate (sign-extended; `addl` range).
        imm: i64,
        /// Source.
        a: Gr,
    },
    /// `sub d = imm8, a` (reverse-subtract immediate).
    SubImm {
        /// Destination.
        d: Gr,
        /// Immediate minuend.
        imm: i64,
        /// Subtrahend register.
        a: Gr,
    },
    /// `and d = a, b`.
    And {
        /// Destination.
        d: Gr,
        /// Source.
        a: Gr,
        /// Source.
        b: Gr,
    },
    /// `or d = a, b`.
    Or {
        /// Destination.
        d: Gr,
        /// Source.
        a: Gr,
        /// Source.
        b: Gr,
    },
    /// `xor d = a, b`.
    Xor {
        /// Destination.
        d: Gr,
        /// Source.
        a: Gr,
        /// Source.
        b: Gr,
    },
    /// `andcm d = a, b` (a AND NOT b).
    AndCm {
        /// Destination.
        d: Gr,
        /// Source.
        a: Gr,
        /// Complemented source.
        b: Gr,
    },
    /// `and d = imm8, a`.
    AndImm {
        /// Destination.
        d: Gr,
        /// Immediate.
        imm: i64,
        /// Source.
        a: Gr,
    },
    /// `or d = imm8, a`.
    OrImm {
        /// Destination.
        d: Gr,
        /// Immediate.
        imm: i64,
        /// Source.
        a: Gr,
    },
    /// `xor d = imm8, a`.
    XorImm {
        /// Destination.
        d: Gr,
        /// Immediate.
        imm: i64,
        /// Source.
        a: Gr,
    },
    /// `shladd d = a, count, b` (d = (a << count) + b, count 1-4).
    Shladd {
        /// Destination.
        d: Gr,
        /// Shifted source.
        a: Gr,
        /// Shift count (1-4).
        count: u8,
        /// Added source.
        b: Gr,
    },
    /// `cmp.rel pt, pf = a, b`.
    Cmp {
        /// Relation.
        rel: CmpRel,
        /// Predicate set to the relation result.
        pt: Pr,
        /// Predicate set to the complement.
        pf: Pr,
        /// First operand.
        a: Gr,
        /// Second operand.
        b: Gr,
    },
    /// `cmp.rel pt, pf = imm8, b`.
    CmpImm {
        /// Relation.
        rel: CmpRel,
        /// True-predicate.
        pt: Pr,
        /// False-predicate.
        pf: Pr,
        /// Immediate first operand.
        imm: i64,
        /// Register second operand.
        b: Gr,
    },
    /// `tbit.z/nz pt, pf = r, pos` (pt = bit set, pf = bit clear).
    Tbit {
        /// Predicate set when the bit is 1.
        pt: Pr,
        /// Predicate set when the bit is 0.
        pf: Pr,
        /// Tested register.
        r: Gr,
        /// Bit position.
        pos: u8,
    },
    /// Parallel add on 1/2/4-byte lanes (`padd1/2/4`).
    Padd {
        /// Lane width in bytes.
        sz: u8,
        /// Destination.
        d: Gr,
        /// Source.
        a: Gr,
        /// Source.
        b: Gr,
    },
    /// Parallel subtract (`psub1/2/4`).
    Psub {
        /// Lane width in bytes.
        sz: u8,
        /// Destination.
        d: Gr,
        /// Source.
        a: Gr,
        /// Source.
        b: Gr,
    },
    /// Parallel 16-bit multiply, low halves (`pmpyshr2 d = a, b, 0`).
    Pmpy2 {
        /// Destination.
        d: Gr,
        /// Source.
        a: Gr,
        /// Source.
        b: Gr,
    },
    // ----- I-type -----
    /// `shl d = a, count` (immediate count).
    ShlImm {
        /// Destination.
        d: Gr,
        /// Source.
        a: Gr,
        /// Count (0-63).
        count: u8,
    },
    /// `shl d = a, c` (variable count; counts ≥ 64 yield 0).
    ShlVar {
        /// Destination.
        d: Gr,
        /// Source.
        a: Gr,
        /// Count register.
        c: Gr,
    },
    /// `shr`/`shr.u d = a, count`.
    ShrImm {
        /// Destination.
        d: Gr,
        /// Source.
        a: Gr,
        /// Count.
        count: u8,
        /// Arithmetic (sign-propagating) shift.
        signed: bool,
    },
    /// `shr`/`shr.u d = a, c` (variable count).
    ShrVar {
        /// Destination.
        d: Gr,
        /// Source.
        a: Gr,
        /// Count register.
        c: Gr,
        /// Arithmetic shift.
        signed: bool,
    },
    /// `extr`/`extr.u d = a, pos, len`.
    Extr {
        /// Destination.
        d: Gr,
        /// Source.
        a: Gr,
        /// Starting bit.
        pos: u8,
        /// Field length.
        len: u8,
        /// Sign-extend the field.
        signed: bool,
    },
    /// `dep d = src, target, pos, len` (deposit `src` field into
    /// `target`).
    Dep {
        /// Destination.
        d: Gr,
        /// Field source (low `len` bits used).
        src: Gr,
        /// Background value.
        target: Gr,
        /// Insertion position.
        pos: u8,
        /// Field length.
        len: u8,
    },
    /// `dep.z d = src, pos, len` (deposit into zero).
    DepZ {
        /// Destination.
        d: Gr,
        /// Field source.
        src: Gr,
        /// Insertion position.
        pos: u8,
        /// Field length.
        len: u8,
    },
    /// `sxt1/2/4 d = a`.
    Sxt {
        /// Destination.
        d: Gr,
        /// Source.
        a: Gr,
        /// Width in bytes (1, 2, or 4).
        size: u8,
    },
    /// `zxt1/2/4 d = a`.
    Zxt {
        /// Destination.
        d: Gr,
        /// Source.
        a: Gr,
        /// Width in bytes.
        size: u8,
    },
    /// `popcnt d = a`.
    Popcnt {
        /// Destination.
        d: Gr,
        /// Source.
        a: Gr,
    },
    /// `mov b = r`.
    MovToBr {
        /// Destination branch register.
        b: Br,
        /// Source.
        r: Gr,
    },
    /// `mov d = b`.
    MovFromBr {
        /// Destination.
        d: Gr,
        /// Source branch register.
        b: Br,
    },
    /// `mov d = ip` (address of the containing bundle).
    MovFromIp {
        /// Destination.
        d: Gr,
    },
    // ----- L+X -----
    /// `movl d = imm64` (occupies two slots of an MLX bundle).
    Movl {
        /// Destination.
        d: Gr,
        /// 64-bit immediate.
        imm: u64,
    },
    // ----- M-type -----
    /// `ld1/2/4/8[.s] d = [addr]`. With `spec`, faults are deferred to
    /// the destination NaT bit (control speculation).
    Ld {
        /// Access size in bytes (1, 2, 4, or 8).
        sz: u8,
        /// Destination.
        d: Gr,
        /// Address register.
        addr: Gr,
        /// `ld.s` speculative form.
        spec: bool,
    },
    /// `st1/2/4/8 [addr] = val`.
    St {
        /// Access size in bytes.
        sz: u8,
        /// Address register.
        addr: Gr,
        /// Value register.
        val: Gr,
    },
    /// `chk.s r, target` — branch to recovery if `r`'s NaT is set.
    ChkS {
        /// Checked register.
        r: Gr,
        /// Recovery target.
        target: Target,
    },
    /// `ldfs/ldfd/ldf8[.s] f = [addr]`.
    Ldf {
        /// Format.
        fmt: FFmt,
        /// Destination FP register.
        f: Fr,
        /// Address register.
        addr: Gr,
        /// Speculative form.
        spec: bool,
    },
    /// `stfs/stfd/stf8 [addr] = f`.
    Stf {
        /// Format.
        fmt: FFmt,
        /// Source FP register.
        f: Fr,
        /// Address register.
        addr: Gr,
    },
    /// `setf.sig/s/d f = r`.
    Setf {
        /// Transfer kind.
        kind: FXfer,
        /// Destination FP register.
        f: Fr,
        /// Source GR.
        r: Gr,
    },
    /// `getf.sig/s/d d = f`.
    Getf {
        /// Transfer kind.
        kind: FXfer,
        /// Destination GR.
        d: Gr,
        /// Source FP register.
        f: Fr,
    },
    /// `mf` — memory fence (a timing no-op here).
    Mf,
    // ----- F-type -----
    /// `fma d = a, b, c` (d = a×b + c, double).
    Fma {
        /// Destination.
        d: Fr,
        /// Multiplicand.
        a: Fr,
        /// Multiplier.
        b: Fr,
        /// Addend.
        c: Fr,
    },
    /// `fms d = a, b, c` (d = a×b − c).
    Fms {
        /// Destination.
        d: Fr,
        /// Multiplicand.
        a: Fr,
        /// Multiplier.
        b: Fr,
        /// Subtrahend.
        c: Fr,
    },
    /// `fnma d = a, b, c` (d = −a×b + c).
    Fnma {
        /// Destination.
        d: Fr,
        /// Multiplicand.
        a: Fr,
        /// Multiplier.
        b: Fr,
        /// Addend.
        c: Fr,
    },
    /// `fmin d = a, b` (returns `b` on NaN/tie, like SSE `MINSS`).
    Fmin {
        /// Destination.
        d: Fr,
        /// Source.
        a: Fr,
        /// Source.
        b: Fr,
    },
    /// `fmax d = a, b`.
    Fmax {
        /// Destination.
        d: Fr,
        /// Source.
        a: Fr,
        /// Source.
        b: Fr,
    },
    /// `fcmp.rel pt, pf = a, b`.
    Fcmp {
        /// Relation.
        rel: FcmpRel,
        /// True-predicate.
        pt: Pr,
        /// False-predicate.
        pf: Pr,
        /// First operand.
        a: Fr,
        /// Second operand.
        b: Fr,
    },
    /// `fcvt.fx[.trunc] d = a` — FP to signed integer (significand).
    FcvtFx {
        /// Destination (significand holds the integer).
        d: Fr,
        /// Source.
        a: Fr,
        /// Truncate toward zero (vs round-to-nearest).
        trunc: bool,
    },
    /// `fcvt.xf d = a` — signed integer (significand) to FP.
    FcvtXf {
        /// Destination.
        d: Fr,
        /// Source (significand read as `i64`).
        a: Fr,
    },
    /// `fmerge.s d = a, b` — sign of `a`, exponent+significand of `b`.
    /// `fmerge.s d = f0, a` is `fabs`; `fmerge.s d = a, a` is a copy.
    FmergeS {
        /// Destination.
        d: Fr,
        /// Sign source.
        a: Fr,
        /// Magnitude source.
        b: Fr,
    },
    /// `fmerge.ns d = a, b` — negated sign of `a`; `d = a, a` is `fneg`.
    FmergeNs {
        /// Destination.
        d: Fr,
        /// Sign source (negated).
        a: Fr,
        /// Magnitude source.
        b: Fr,
    },
    /// `frcpa d, p = a, b` — reciprocal approximation of `b` (~8.8 bits)
    /// and a predicate telling software whether to run the
    /// Newton-Raphson refinement.
    Frcpa {
        /// Approximation destination.
        d: Fr,
        /// Refinement predicate.
        p: Pr,
        /// Dividend (used for special-case handling).
        a: Fr,
        /// Divisor.
        b: Fr,
    },
    /// `frsqrta d, p = a` — reciprocal square root approximation.
    Frsqrta {
        /// Approximation destination.
        d: Fr,
        /// Refinement predicate.
        p: Pr,
        /// Source.
        a: Fr,
    },
    /// Exact square root. **Modeling substitution**: real Itanium has no
    /// FP sqrt instruction (software uses `frsqrta` + refinement); we
    /// provide the exact operation so the x87 `FSQRT` translation is
    /// bit-identical to the oracle. See DESIGN.md.
    Fsqrt {
        /// Destination.
        d: Fr,
        /// Source.
        a: Fr,
    },
    /// `fnorm.s d = a` — normalize/round to single precision (the
    /// sequence scalar-SSE translations use to match IA-32's per-op
    /// single rounding).
    FnormS {
        /// Destination.
        d: Fr,
        /// Source.
        a: Fr,
    },
    /// `fpma d = a, b, c` — parallel FP multiply-add on 2×f32 lanes of
    /// the significands.
    Fpma {
        /// Destination.
        d: Fr,
        /// Multiplicand.
        a: Fr,
        /// Multiplier.
        b: Fr,
        /// Addend.
        c: Fr,
    },
    /// `fpms d = a, b, c` — parallel multiply-subtract (a×b − c).
    Fpms {
        /// Destination.
        d: Fr,
        /// Multiplicand.
        a: Fr,
        /// Multiplier.
        b: Fr,
        /// Subtrahend.
        c: Fr,
    },
    /// `fpmin d = a, b` — parallel minimum on 2×f32 lanes.
    Fpmin {
        /// Destination.
        d: Fr,
        /// Source.
        a: Fr,
        /// Source.
        b: Fr,
    },
    /// `fpmax d = a, b`.
    Fpmax {
        /// Destination.
        d: Fr,
        /// Source.
        a: Fr,
        /// Source.
        b: Fr,
    },
    /// Parallel divide on 2×f32 lanes. **Modeling substitution** (real
    /// code uses `fprcpa` + refinement); exactness keeps `DIVPS`
    /// bit-identical to the oracle. See DESIGN.md.
    Fpdiv {
        /// Destination.
        d: Fr,
        /// Dividend lanes.
        a: Fr,
        /// Divisor lanes.
        b: Fr,
    },
    /// `xma.l/hu d = a, b, c` — integer multiply-add on significands.
    Xma {
        /// Destination.
        d: Fr,
        /// Multiplicand (significand as integer).
        a: Fr,
        /// Multiplier.
        b: Fr,
        /// Addend.
        c: Fr,
        /// Take the high 64 bits of the unsigned product.
        high: bool,
    },
    // ----- B-type -----
    /// `br.cond target` (unconditional when `qp` is `p0`).
    Br {
        /// Target.
        target: Target,
    },
    /// `br.call b = target` — saves the return address (next bundle).
    BrCall {
        /// Link register.
        b_save: Br,
        /// Target.
        target: Target,
    },
    /// `br.ret b` / indirect branch through `b`.
    BrRet {
        /// Branch register holding the target.
        b: Br,
    },
    /// `nop.m/i/f/b` (unit chosen by the bundler).
    Nop {
        /// Unit this no-op fills.
        unit: Unit,
    },
}

impl Op {
    /// The execution unit class this operation needs.
    pub fn unit(&self) -> Unit {
        use Op::*;
        match self {
            Add { .. }
            | Sub { .. }
            | AddImm { .. }
            | SubImm { .. }
            | And { .. }
            | Or { .. }
            | Xor { .. }
            | AndCm { .. }
            | AndImm { .. }
            | OrImm { .. }
            | XorImm { .. }
            | Shladd { .. }
            | Cmp { .. }
            | CmpImm { .. } => Unit::A,
            Tbit { .. }
            | ShlImm { .. }
            | ShlVar { .. }
            | ShrImm { .. }
            | ShrVar { .. }
            | Extr { .. }
            | Dep { .. }
            | DepZ { .. }
            | Sxt { .. }
            | Zxt { .. }
            | Popcnt { .. }
            | MovToBr { .. }
            | MovFromBr { .. }
            | MovFromIp { .. }
            | Padd { .. }
            | Psub { .. }
            | Pmpy2 { .. } => Unit::I,
            Movl { .. } => Unit::L,
            Ld { .. } | St { .. } | Ldf { .. } | Stf { .. } | Setf { .. } | Getf { .. } | Mf => {
                Unit::M
            }
            ChkS { .. } => Unit::A, // chk.s may issue on M or I
            Fma { .. }
            | Fms { .. }
            | Fnma { .. }
            | Fmin { .. }
            | Fmax { .. }
            | Fcmp { .. }
            | FcvtFx { .. }
            | FcvtXf { .. }
            | FmergeS { .. }
            | FmergeNs { .. }
            | Frcpa { .. }
            | FnormS { .. }
            | Frsqrta { .. }
            | Fsqrt { .. }
            | Fpma { .. }
            | Fpms { .. }
            | Fpmin { .. }
            | Fpmax { .. }
            | Fpdiv { .. }
            | Xma { .. } => Unit::F,
            Br { .. } | BrCall { .. } | BrRet { .. } => Unit::B,
            Nop { unit } => *unit,
        }
    }

    /// The latency class of this operation's results.
    pub fn lat_class(&self) -> LatClass {
        match self {
            Op::Ld { .. } => LatClass::Ld,
            Op::Ldf { .. } => LatClass::Ldf,
            Op::Setf { .. } | Op::Getf { .. } => LatClass::Xfer,
            Op::Fma { .. }
            | Op::Fms { .. }
            | Op::Fnma { .. }
            | Op::Fmin { .. }
            | Op::Fmax { .. }
            | Op::FcvtFx { .. }
            | Op::FcvtXf { .. }
            | Op::FmergeS { .. }
            | Op::FmergeNs { .. }
            | Op::Frcpa { .. }
            | Op::Frsqrta { .. }
            | Op::Fsqrt { .. }
            | Op::FnormS { .. }
            | Op::Fpma { .. }
            | Op::Fpms { .. }
            | Op::Fpmin { .. }
            | Op::Fpmax { .. }
            | Op::Fpdiv { .. }
            | Op::Xma { .. } => LatClass::Fp,
            Op::MovToBr { .. } | Op::MovFromBr { .. } | Op::Fcmp { .. } => LatClass::Two,
            _ => LatClass::One,
        }
    }

    /// True if this is any branch (including `chk.s`, which transfers
    /// control on failure).
    pub fn is_branch(&self) -> bool {
        matches!(
            self,
            Op::Br { .. } | Op::BrCall { .. } | Op::BrRet { .. } | Op::ChkS { .. }
        )
    }

    /// True for memory accesses (used by the scheduler's ordering rules).
    pub fn is_mem(&self) -> bool {
        matches!(
            self,
            Op::Ld { .. } | Op::St { .. } | Op::Ldf { .. } | Op::Stf { .. }
        )
    }

    /// True for stores (never reorderable across commit points).
    pub fn is_store(&self) -> bool {
        matches!(self, Op::St { .. } | Op::Stf { .. })
    }

    /// True if execution of this op may fault (memory or deferred check).
    pub fn can_fault(&self) -> bool {
        match self {
            Op::Ld { spec, .. } | Op::Ldf { spec, .. } => !spec,
            Op::St { .. } | Op::Stf { .. } => true,
            _ => false,
        }
    }

    /// Walks every register operand; `cb(reg, is_def)`.
    pub fn visit_regs(&self, cb: &mut dyn FnMut(Reg, bool)) {
        use Op::*;
        use Reg::*;
        match *self {
            Add { d, a, b }
            | Sub { d, a, b }
            | And { d, a, b }
            | Or { d, a, b }
            | Xor { d, a, b }
            | AndCm { d, a, b } => {
                cb(G(a), false);
                cb(G(b), false);
                cb(G(d), true);
            }
            AddImm { d, a, .. }
            | SubImm { d, a, .. }
            | AndImm { d, a, .. }
            | OrImm { d, a, .. }
            | XorImm { d, a, .. } => {
                cb(G(a), false);
                cb(G(d), true);
            }
            Shladd { d, a, b, .. } => {
                cb(G(a), false);
                cb(G(b), false);
                cb(G(d), true);
            }
            Cmp { pt, pf, a, b, .. } => {
                cb(G(a), false);
                cb(G(b), false);
                cb(P(pt), true);
                cb(P(pf), true);
            }
            CmpImm { pt, pf, b, .. } => {
                cb(G(b), false);
                cb(P(pt), true);
                cb(P(pf), true);
            }
            Tbit { pt, pf, r, .. } => {
                cb(G(r), false);
                cb(P(pt), true);
                cb(P(pf), true);
            }
            Padd { d, a, b, .. } | Psub { d, a, b, .. } | Pmpy2 { d, a, b } => {
                cb(G(a), false);
                cb(G(b), false);
                cb(G(d), true);
            }
            ShlImm { d, a, .. } | ShrImm { d, a, .. } => {
                cb(G(a), false);
                cb(G(d), true);
            }
            ShlVar { d, a, c } | ShrVar { d, a, c, .. } => {
                cb(G(a), false);
                cb(G(c), false);
                cb(G(d), true);
            }
            Extr { d, a, .. } | Sxt { d, a, .. } | Zxt { d, a, .. } | Popcnt { d, a } => {
                cb(G(a), false);
                cb(G(d), true);
            }
            Dep { d, src, target, .. } => {
                cb(G(src), false);
                cb(G(target), false);
                cb(G(d), true);
            }
            DepZ { d, src, .. } => {
                cb(G(src), false);
                cb(G(d), true);
            }
            MovToBr { b, r } => {
                cb(G(r), false);
                cb(B(b), true);
            }
            MovFromBr { d, b } => {
                cb(B(b), false);
                cb(G(d), true);
            }
            MovFromIp { d } => cb(G(d), true),
            Movl { d, .. } => cb(G(d), true),
            Ld { d, addr, .. } => {
                cb(G(addr), false);
                cb(G(d), true);
            }
            St { addr, val, .. } => {
                cb(G(addr), false);
                cb(G(val), false);
            }
            ChkS { r, .. } => cb(G(r), false),
            Ldf { f, addr, .. } => {
                cb(G(addr), false);
                cb(F(f), true);
            }
            Stf { f, addr, .. } => {
                cb(G(addr), false);
                cb(F(f), false);
            }
            Setf { f, r, .. } => {
                cb(G(r), false);
                cb(F(f), true);
            }
            Getf { d, f, .. } => {
                cb(F(f), false);
                cb(G(d), true);
            }
            Mf => {}
            Fma { d, a, b, c }
            | Fms { d, a, b, c }
            | Fnma { d, a, b, c }
            | Fpma { d, a, b, c }
            | Fpms { d, a, b, c } => {
                cb(F(a), false);
                cb(F(b), false);
                cb(F(c), false);
                cb(F(d), true);
            }
            Xma { d, a, b, c, .. } => {
                cb(F(a), false);
                cb(F(b), false);
                cb(F(c), false);
                cb(F(d), true);
            }
            Fmin { d, a, b }
            | Fmax { d, a, b }
            | Fpmin { d, a, b }
            | Fpmax { d, a, b }
            | Fpdiv { d, a, b }
            | FmergeS { d, a, b }
            | FmergeNs { d, a, b } => {
                cb(F(a), false);
                cb(F(b), false);
                cb(F(d), true);
            }
            Fcmp { pt, pf, a, b, .. } => {
                cb(F(a), false);
                cb(F(b), false);
                cb(P(pt), true);
                cb(P(pf), true);
            }
            FcvtFx { d, a, .. } | FcvtXf { d, a } | Fsqrt { d, a } | FnormS { d, a } => {
                cb(F(a), false);
                cb(F(d), true);
            }
            Frcpa { d, p, a, b } => {
                cb(F(a), false);
                cb(F(b), false);
                cb(F(d), true);
                cb(P(p), true);
            }
            Frsqrta { d, p, a } => {
                cb(F(a), false);
                cb(F(d), true);
                cb(P(p), true);
            }
            Br { target } => {
                if let Target::Reg(b) = target {
                    cb(B(b), false);
                }
            }
            BrCall { b_save, target } => {
                if let Target::Reg(b) = target {
                    cb(B(b), false);
                }
                cb(B(b_save), true);
            }
            BrRet { b } => cb(B(b), false),
            Nop { .. } => {}
        }
    }

    /// Collects the registers read (includes the qualifying predicate
    /// only via [`Inst`]-level helpers).
    pub fn uses(&self) -> Vec<Reg> {
        let mut v = Vec::with_capacity(4);
        self.visit_regs(&mut |r, is_def| {
            if !is_def {
                v.push(r);
            }
        });
        v
    }

    /// Collects the registers written.
    pub fn defs(&self) -> Vec<Reg> {
        let mut v = Vec::with_capacity(2);
        self.visit_regs(&mut |r, is_def| {
            if is_def {
                v.push(r);
            }
        });
        v
    }

    /// Rewrites every register operand through `f` (used by renaming and
    /// virtual-register allocation). `f` must preserve the register
    /// class.
    pub fn map_regs(&mut self, f: &mut dyn FnMut(Reg, bool) -> Reg) {
        macro_rules! g {
            ($r:expr, $def:expr) => {
                match f(Reg::G(*$r), $def) {
                    Reg::G(x) => *$r = x,
                    _ => panic!("register class changed in map_regs"),
                }
            };
        }
        macro_rules! fr {
            ($r:expr, $def:expr) => {
                match f(Reg::F(*$r), $def) {
                    Reg::F(x) => *$r = x,
                    _ => panic!("register class changed in map_regs"),
                }
            };
        }
        macro_rules! p {
            ($r:expr, $def:expr) => {
                match f(Reg::P(*$r), $def) {
                    Reg::P(x) => *$r = x,
                    _ => panic!("register class changed in map_regs"),
                }
            };
        }
        use Op::*;
        match self {
            Add { d, a, b }
            | Sub { d, a, b }
            | And { d, a, b }
            | Or { d, a, b }
            | Xor { d, a, b }
            | AndCm { d, a, b }
            | Shladd { d, a, b, .. }
            | Padd { d, a, b, .. }
            | Psub { d, a, b, .. }
            | Pmpy2 { d, a, b } => {
                g!(a, false);
                g!(b, false);
                g!(d, true);
            }
            AddImm { d, a, .. }
            | SubImm { d, a, .. }
            | AndImm { d, a, .. }
            | OrImm { d, a, .. }
            | XorImm { d, a, .. }
            | ShlImm { d, a, .. }
            | ShrImm { d, a, .. }
            | Extr { d, a, .. }
            | Sxt { d, a, .. }
            | Zxt { d, a, .. }
            | Popcnt { d, a } => {
                g!(a, false);
                g!(d, true);
            }
            Cmp { pt, pf, a, b, .. } => {
                g!(a, false);
                g!(b, false);
                p!(pt, true);
                p!(pf, true);
            }
            CmpImm { pt, pf, b, .. } => {
                g!(b, false);
                p!(pt, true);
                p!(pf, true);
            }
            Tbit { pt, pf, r, .. } => {
                g!(r, false);
                p!(pt, true);
                p!(pf, true);
            }
            ShlVar { d, a, c } | ShrVar { d, a, c, .. } => {
                g!(a, false);
                g!(c, false);
                g!(d, true);
            }
            Dep { d, src, target, .. } => {
                g!(src, false);
                g!(target, false);
                g!(d, true);
            }
            DepZ { d, src, .. } => {
                g!(src, false);
                g!(d, true);
            }
            MovToBr { r, .. } => g!(r, false),
            MovFromBr { d, .. } | MovFromIp { d } | Movl { d, .. } => g!(d, true),
            Ld { d, addr, .. } => {
                g!(addr, false);
                g!(d, true);
            }
            St { addr, val, .. } => {
                g!(addr, false);
                g!(val, false);
            }
            ChkS { r, .. } => g!(r, false),
            Ldf { f: fd, addr, .. } => {
                g!(addr, false);
                fr!(fd, true);
            }
            Stf { f: fs, addr, .. } => {
                g!(addr, false);
                fr!(fs, false);
            }
            Setf { f: fd, r, .. } => {
                g!(r, false);
                fr!(fd, true);
            }
            Getf { d, f: fs, .. } => {
                fr!(fs, false);
                g!(d, true);
            }
            Mf | Nop { .. } | Br { .. } | BrRet { .. } | BrCall { .. } => {}
            Fma { d, a, b, c }
            | Fms { d, a, b, c }
            | Fnma { d, a, b, c }
            | Fpma { d, a, b, c }
            | Fpms { d, a, b, c }
            | Xma { d, a, b, c, .. } => {
                fr!(a, false);
                fr!(b, false);
                fr!(c, false);
                fr!(d, true);
            }
            Fmin { d, a, b }
            | Fmax { d, a, b }
            | Fpmin { d, a, b }
            | Fpmax { d, a, b }
            | Fpdiv { d, a, b }
            | FmergeS { d, a, b }
            | FmergeNs { d, a, b } => {
                fr!(a, false);
                fr!(b, false);
                fr!(d, true);
            }
            Fcmp { pt, pf, a, b, .. } => {
                fr!(a, false);
                fr!(b, false);
                p!(pt, true);
                p!(pf, true);
            }
            FcvtFx { d, a, .. } | FcvtXf { d, a } | Fsqrt { d, a } | FnormS { d, a } => {
                fr!(a, false);
                fr!(d, true);
            }
            Frcpa { d, p, a, b } => {
                fr!(a, false);
                fr!(b, false);
                fr!(d, true);
                p!(p, true);
            }
            Frsqrta { d, p, a } => {
                fr!(a, false);
                fr!(d, true);
                p!(p, true);
            }
        }
    }

    /// The branch target, if this is a direct branch/check.
    pub fn target(&self) -> Option<Target> {
        match self {
            Op::Br { target } | Op::BrCall { target, .. } | Op::ChkS { target, .. } => {
                Some(*target)
            }
            _ => None,
        }
    }

    /// Rewrites the branch target (label patching).
    pub fn set_target(&mut self, t: Target) {
        match self {
            Op::Br { target } | Op::BrCall { target, .. } | Op::ChkS { target, .. } => *target = t,
            _ => panic!("set_target on a non-branch"),
        }
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
        match self {
            Add { d, a, b } => write!(f, "add {d} = {a}, {b}"),
            Sub { d, a, b } => write!(f, "sub {d} = {a}, {b}"),
            AddImm { d, imm, a } => write!(f, "adds {d} = {imm}, {a}"),
            SubImm { d, imm, a } => write!(f, "sub {d} = {imm}, {a}"),
            And { d, a, b } => write!(f, "and {d} = {a}, {b}"),
            Or { d, a, b } => write!(f, "or {d} = {a}, {b}"),
            Xor { d, a, b } => write!(f, "xor {d} = {a}, {b}"),
            AndCm { d, a, b } => write!(f, "andcm {d} = {a}, {b}"),
            AndImm { d, imm, a } => write!(f, "and {d} = {imm}, {a}"),
            OrImm { d, imm, a } => write!(f, "or {d} = {imm}, {a}"),
            XorImm { d, imm, a } => write!(f, "xor {d} = {imm}, {a}"),
            Shladd { d, a, count, b } => write!(f, "shladd {d} = {a}, {count}, {b}"),
            Cmp { rel, pt, pf, a, b } => {
                write!(f, "cmp.{} {pt}, {pf} = {a}, {b}", rel.mnemonic())
            }
            CmpImm {
                rel,
                pt,
                pf,
                imm,
                b,
            } => {
                write!(f, "cmp.{} {pt}, {pf} = {imm}, {b}", rel.mnemonic())
            }
            Tbit { pt, pf, r, pos } => write!(f, "tbit {pt}, {pf} = {r}, {pos}"),
            Padd { sz, d, a, b } => write!(f, "padd{sz} {d} = {a}, {b}"),
            Psub { sz, d, a, b } => write!(f, "psub{sz} {d} = {a}, {b}"),
            Pmpy2 { d, a, b } => write!(f, "pmpyshr2 {d} = {a}, {b}, 0"),
            ShlImm { d, a, count } => write!(f, "shl {d} = {a}, {count}"),
            ShlVar { d, a, c } => write!(f, "shl {d} = {a}, {c}"),
            ShrImm {
                d,
                a,
                count,
                signed,
            } => write!(
                f,
                "shr{} {d} = {a}, {count}",
                if *signed { "" } else { ".u" }
            ),
            ShrVar { d, a, c, signed } => {
                write!(f, "shr{} {d} = {a}, {c}", if *signed { "" } else { ".u" })
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
            Sxt { d, a, size } => write!(f, "sxt{size} {d} = {a}"),
            Zxt { d, a, size } => write!(f, "zxt{size} {d} = {a}"),
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
            Fma { d, a, b, c } => write!(f, "fma {d} = {a}, {b}, {c}"),
            Fms { d, a, b, c } => write!(f, "fms {d} = {a}, {b}, {c}"),
            Fnma { d, a, b, c } => write!(f, "fnma {d} = {a}, {b}, {c}"),
            Fmin { d, a, b } => write!(f, "fmin {d} = {a}, {b}"),
            Fmax { d, a, b } => write!(f, "fmax {d} = {a}, {b}"),
            Fcmp { rel, pt, pf, a, b } => write!(f, "fcmp.{rel:?} {pt}, {pf} = {a}, {b}"),
            FcvtFx { d, a, trunc } => {
                write!(f, "fcvt.fx{} {d} = {a}", if *trunc { ".trunc" } else { "" })
            }
            FcvtXf { d, a } => write!(f, "fcvt.xf {d} = {a}"),
            FmergeS { d, a, b } => write!(f, "fmerge.s {d} = {a}, {b}"),
            FmergeNs { d, a, b } => write!(f, "fmerge.ns {d} = {a}, {b}"),
            Frcpa { d, p, a, b } => write!(f, "frcpa {d}, {p} = {a}, {b}"),
            Frsqrta { d, p, a } => write!(f, "frsqrta {d}, {p} = {a}"),
            Fsqrt { d, a } => write!(f, "fsqrt* {d} = {a}"),
            FnormS { d, a } => write!(f, "fnorm.s {d} = {a}"),
            Fpma { d, a, b, c } => write!(f, "fpma {d} = {a}, {b}, {c}"),
            Fpms { d, a, b, c } => write!(f, "fpms {d} = {a}, {b}, {c}"),
            Fpmin { d, a, b } => write!(f, "fpmin {d} = {a}, {b}"),
            Fpmax { d, a, b } => write!(f, "fpmax {d} = {a}, {b}"),
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
                a: Gr(1),
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
        let cmp = Inst::new(Op::CmpImm {
            rel: CmpRel::Eq,
            pt: Pr(1),
            pf: Pr(2),
            imm: 0,
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
            a: Gr(1),
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
            a: Gr(1),
            b: Gr(2),
        };
        assert_eq!(cmp.defs(), vec![Reg::P(Pr(1)), Reg::P(Pr(2))]);
    }

    #[test]
    fn map_regs_renames() {
        let mut op = Op::Add {
            d: Gr(VIRT_BASE),
            a: Gr(VIRT_BASE + 1),
            b: Gr(2),
        };
        op.map_regs(&mut |r, _| match r {
            Reg::G(g) if g.is_virtual() => Reg::G(Gr(g.0 - VIRT_BASE + 50)),
            other => other,
        });
        assert_eq!(
            op,
            Op::Add {
                d: Gr(50),
                a: Gr(51),
                b: Gr(2)
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
    fn display_smoke() {
        let i = Inst::pred(
            Pr(3),
            Op::AddImm {
                d: Gr(4),
                imm: -4,
                a: Gr(12),
            },
        );
        assert_eq!(i.to_string(), "(p3) adds r4 = -4, r12");
    }
}
