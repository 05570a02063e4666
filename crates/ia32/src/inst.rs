//! The IA-32 instruction model.
//!
//! [`Inst`] is the decoded form shared by the encoder, decoder, reference
//! interpreter, and the translator's template library. The subset covers
//! the integer, control-flow, x87, MMX, and SSE instructions the paper's
//! evaluation exercises.

use crate::flags::{Cond, Size};
use crate::regs::{Gpr, Mm, Xmm};
use std::fmt;

/// A memory operand's effective-address expression:
/// `[base + index*scale + disp]`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct Addr {
    /// Optional base register.
    pub base: Option<Gpr>,
    /// Optional scaled index: `(register, scale)` with scale in {1,2,4,8}.
    /// The index register may not be `ESP` (hardware restriction).
    pub index: Option<(Gpr, u8)>,
    /// Signed displacement.
    pub disp: i32,
}

impl Addr {
    /// An absolute address (displacement only).
    pub fn abs(disp: u32) -> Addr {
        Addr {
            base: None,
            index: None,
            disp: disp as i32,
        }
    }

    /// `[base]`.
    pub fn base(base: Gpr) -> Addr {
        Addr {
            base: Some(base),
            index: None,
            disp: 0,
        }
    }

    /// `[base + disp]`.
    pub fn base_disp(base: Gpr, disp: i32) -> Addr {
        Addr {
            base: Some(base),
            index: None,
            disp,
        }
    }

    /// `[base + index*scale + disp]`.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not 1, 2, 4, or 8, or if `index` is `ESP`.
    pub fn base_index(base: Gpr, index: Gpr, scale: u8, disp: i32) -> Addr {
        Addr::base(base).with_index(index, scale).with_disp(disp)
    }

    /// Adds a scaled index.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not 1, 2, 4, or 8, or if `index` is `ESP`.
    pub fn with_index(mut self, index: Gpr, scale: u8) -> Addr {
        assert!(
            matches!(scale, 1 | 2 | 4 | 8),
            "invalid scale factor: {scale}"
        );
        assert_ne!(index, crate::regs::ESP, "ESP cannot be an index register");
        self.index = Some((index, scale));
        self
    }

    /// Sets the displacement.
    pub fn with_disp(mut self, disp: i32) -> Addr {
        self.disp = disp;
        self
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        let mut first = true;
        if let Some(b) = self.base {
            write!(f, "{b}")?;
            first = false;
        }
        if let Some((i, s)) = self.index {
            if !first {
                write!(f, "+")?;
            }
            write!(f, "{i}*{s}")?;
            first = false;
        }
        if self.disp != 0 || first {
            if first {
                write!(f, "{:#x}", self.disp as u32)?;
            } else if self.disp >= 0 {
                write!(f, "+{:#x}", self.disp)?;
            } else {
                write!(f, "-{:#x}", -(self.disp as i64))?;
            }
        }
        write!(f, "]")
    }
}

/// A register-or-memory operand (the ModRM `r/m` field).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Rm {
    /// A general-purpose register.
    Reg(Gpr),
    /// A memory operand.
    Mem(Addr),
}

impl Rm {
    /// Returns the memory address expression if this is a memory operand.
    pub fn mem(self) -> Option<Addr> {
        match self {
            Rm::Reg(_) => None,
            Rm::Mem(a) => Some(a),
        }
    }

    /// True if this is a memory operand.
    pub fn is_mem(self) -> bool {
        matches!(self, Rm::Mem(_))
    }
}

impl From<Gpr> for Rm {
    fn from(r: Gpr) -> Rm {
        Rm::Reg(r)
    }
}

impl From<Addr> for Rm {
    fn from(a: Addr) -> Rm {
        Rm::Mem(a)
    }
}

impl fmt::Display for Rm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rm::Reg(r) => write!(f, "{r}"),
            Rm::Mem(a) => write!(f, "{a}"),
        }
    }
}

/// A register, memory, or immediate source operand.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RmI {
    /// A general-purpose register.
    Reg(Gpr),
    /// A memory operand.
    Mem(Addr),
    /// An immediate (sign-extended to the operand size as needed).
    Imm(i32),
}

impl RmI {
    /// Returns the memory address expression if this is a memory operand.
    pub fn mem(self) -> Option<Addr> {
        match self {
            RmI::Mem(a) => Some(a),
            _ => None,
        }
    }
}

impl From<Gpr> for RmI {
    fn from(r: Gpr) -> RmI {
        RmI::Reg(r)
    }
}

impl From<Addr> for RmI {
    fn from(a: Addr) -> RmI {
        RmI::Mem(a)
    }
}

impl From<i32> for RmI {
    fn from(i: i32) -> RmI {
        RmI::Imm(i)
    }
}

impl From<Rm> for RmI {
    fn from(rm: Rm) -> RmI {
        match rm {
            Rm::Reg(r) => RmI::Reg(r),
            Rm::Mem(a) => RmI::Mem(a),
        }
    }
}

impl fmt::Display for RmI {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RmI::Reg(r) => write!(f, "{r}"),
            RmI::Mem(a) => write!(f, "{a}"),
            RmI::Imm(i) => write!(f, "{:#x}", *i),
        }
    }
}

/// Two-operand ALU operations that read and write `dst` and set the
/// arithmetic flags.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum AluOp {
    /// Addition.
    Add = 0,
    /// Bitwise OR.
    Or = 1,
    /// Add with carry.
    Adc = 2,
    /// Subtract with borrow.
    Sbb = 3,
    /// Bitwise AND.
    And = 4,
    /// Subtraction.
    Sub = 5,
    /// Bitwise XOR.
    Xor = 6,
    /// Compare (subtraction that discards the result).
    Cmp = 7,
}

impl AluOp {
    /// The `/digit` used in the `0x80`-group immediate encodings, which
    /// also selects the opcode row (`op * 8`).
    pub fn digit(self) -> u8 {
        self as u8
    }

    /// Creates an op from its encoding digit.
    ///
    /// # Panics
    ///
    /// Panics if `d > 7`.
    pub fn from_digit(d: u8) -> AluOp {
        [
            AluOp::Add,
            AluOp::Or,
            AluOp::Adc,
            AluOp::Sbb,
            AluOp::And,
            AluOp::Sub,
            AluOp::Xor,
            AluOp::Cmp,
        ][d as usize]
    }

    /// True if the operation writes its destination (`CMP` does not).
    pub fn writes_dst(self) -> bool {
        !matches!(self, AluOp::Cmp)
    }

    /// True if the operation reads CF (`ADC`/`SBB`).
    pub fn reads_carry(self) -> bool {
        matches!(self, AluOp::Adc | AluOp::Sbb)
    }

    /// Mnemonic.
    pub fn mnemonic(self) -> &'static str {
        ["add", "or", "adc", "sbb", "and", "sub", "xor", "cmp"][self as usize]
    }
}

/// Shift operations.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ShiftOp {
    /// Logical shift left.
    Shl,
    /// Logical shift right.
    Shr,
    /// Arithmetic shift right.
    Sar,
}

impl ShiftOp {
    /// The ModRM `/digit` in the shift-group encodings.
    pub fn digit(self) -> u8 {
        match self {
            ShiftOp::Shl => 4,
            ShiftOp::Shr => 5,
            ShiftOp::Sar => 7,
        }
    }

    /// Mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            ShiftOp::Shl => "shl",
            ShiftOp::Shr => "shr",
            ShiftOp::Sar => "sar",
        }
    }
}

/// Shift count operand.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ShiftCount {
    /// An immediate count (masked to 5 bits by hardware).
    Imm(u8),
    /// The `CL` register.
    Cl,
}

/// One-operand `F6`/`F7`-group multiply/divide operations on
/// `EDX:EAX` (or `AX` for byte size).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MulDivOp {
    /// Unsigned multiply: `EDX:EAX = EAX * src`.
    Mul,
    /// Signed multiply (one-operand form).
    Imul,
    /// Unsigned divide: `EAX = EDX:EAX / src`, `EDX = remainder`.
    Div,
    /// Signed divide.
    Idiv,
}

impl MulDivOp {
    /// The ModRM `/digit` in the `F6`/`F7` group.
    pub fn digit(self) -> u8 {
        match self {
            MulDivOp::Mul => 4,
            MulDivOp::Imul => 5,
            MulDivOp::Div => 6,
            MulDivOp::Idiv => 7,
        }
    }

    /// Mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            MulDivOp::Mul => "mul",
            MulDivOp::Imul => "imul",
            MulDivOp::Div => "div",
            MulDivOp::Idiv => "idiv",
        }
    }
}

/// An x87 source/destination that is either memory (32- or 64-bit float)
/// or a stack register `ST(i)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FpOperand {
    /// A 32-bit float in memory.
    M32(Addr),
    /// A 64-bit float in memory.
    M64(Addr),
    /// Stack register `ST(i)`.
    St(u8),
}

impl FpOperand {
    /// Returns the memory address expression if this is a memory operand.
    pub fn mem(self) -> Option<Addr> {
        match self {
            FpOperand::M32(a) | FpOperand::M64(a) => Some(a),
            FpOperand::St(_) => None,
        }
    }
}

/// x87 arithmetic operations.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FpArithOp {
    /// `dst = dst + src`.
    Add,
    /// `dst = dst - src`.
    Sub,
    /// `dst = src - dst` (reverse subtract).
    SubR,
    /// `dst = dst * src`.
    Mul,
    /// `dst = dst / src`.
    Div,
    /// `dst = src / dst` (reverse divide).
    DivR,
}

impl FpArithOp {
    /// The ModRM `/digit` in the `D8`/`DC` groups.
    pub fn digit(self) -> u8 {
        match self {
            FpArithOp::Add => 0,
            FpArithOp::Mul => 1,
            FpArithOp::Sub => 4,
            FpArithOp::SubR => 5,
            FpArithOp::Div => 6,
            FpArithOp::DivR => 7,
        }
    }

    /// Creates an op from its digit, if it is an arithmetic digit.
    pub fn from_digit(d: u8) -> Option<FpArithOp> {
        match d {
            0 => Some(FpArithOp::Add),
            1 => Some(FpArithOp::Mul),
            4 => Some(FpArithOp::Sub),
            5 => Some(FpArithOp::SubR),
            6 => Some(FpArithOp::Div),
            7 => Some(FpArithOp::DivR),
            _ => None,
        }
    }

    /// Applies the operation.
    pub fn apply(self, dst: f64, src: f64) -> f64 {
        match self {
            FpArithOp::Add => dst + src,
            FpArithOp::Sub => dst - src,
            FpArithOp::SubR => src - dst,
            FpArithOp::Mul => dst * src,
            FpArithOp::Div => dst / src,
            FpArithOp::DivR => src / dst,
        }
    }

    /// Mnemonic stem (`fadd`, …).
    pub fn mnemonic(self) -> &'static str {
        match self {
            FpArithOp::Add => "fadd",
            FpArithOp::Sub => "fsub",
            FpArithOp::SubR => "fsubr",
            FpArithOp::Mul => "fmul",
            FpArithOp::Div => "fdiv",
            FpArithOp::DivR => "fdivr",
        }
    }
}

/// Forms of x87 arithmetic instructions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FpArithForm {
    /// `op ST(0), m32/m64`.
    St0Mem(Size2, Addr),
    /// `op ST(0), ST(i)`.
    St0Sti(u8),
    /// `op ST(i), ST(0)`; `pop` selects the `...P` form.
    StiSt0 {
        /// Destination stack register index.
        i: u8,
        /// Pop the stack after the operation.
        pop: bool,
    },
}

/// Memory float width (32- or 64-bit).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Size2 {
    /// 32-bit (single precision).
    S,
    /// 64-bit (double precision).
    D,
}

impl Size2 {
    /// Number of bytes.
    pub fn bytes(self) -> u32 {
        match self {
            Size2::S => 4,
            Size2::D => 8,
        }
    }
}

/// MMX packed ALU operations.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MmxOp {
    /// Packed add, lane width in bytes (1, 2, or 4).
    PAdd(u8),
    /// Packed subtract, lane width in bytes.
    PSub(u8),
    /// Bitwise AND.
    Pand,
    /// Bitwise OR.
    Por,
    /// Bitwise XOR.
    Pxor,
    /// Packed 16-bit multiply, low halves.
    Pmullw,
}

impl MmxOp {
    /// Mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            MmxOp::PAdd(1) => "paddb",
            MmxOp::PAdd(2) => "paddw",
            MmxOp::PAdd(_) => "paddd",
            MmxOp::PSub(1) => "psubb",
            MmxOp::PSub(2) => "psubw",
            MmxOp::PSub(_) => "psubd",
            MmxOp::Pand => "pand",
            MmxOp::Por => "por",
            MmxOp::Pxor => "pxor",
            MmxOp::Pmullw => "pmullw",
        }
    }
}

/// An MMX register-or-memory source.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MmM {
    /// An MMX register.
    Reg(Mm),
    /// A 64-bit memory operand.
    Mem(Addr),
}

impl MmM {
    /// Returns the memory address expression if this is a memory operand.
    pub fn mem(self) -> Option<Addr> {
        match self {
            MmM::Reg(_) => None,
            MmM::Mem(a) => Some(a),
        }
    }
}

impl fmt::Display for MmM {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MmM::Reg(m) => write!(f, "{m}"),
            MmM::Mem(a) => write!(f, "{a}"),
        }
    }
}

/// An XMM register-or-memory source.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum XmmM {
    /// An XMM register.
    Reg(Xmm),
    /// A memory operand (width depends on the instruction).
    Mem(Addr),
}

impl XmmM {
    /// Returns the memory address expression if this is a memory operand.
    pub fn mem(self) -> Option<Addr> {
        match self {
            XmmM::Reg(_) => None,
            XmmM::Mem(a) => Some(a),
        }
    }
}

impl fmt::Display for XmmM {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XmmM::Reg(x) => write!(f, "{x}"),
            XmmM::Mem(a) => write!(f, "{a}"),
        }
    }
}

/// SSE arithmetic operations (scalar-single or packed-single selected by
/// the instruction).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SseOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

impl SseOp {
    /// The 0F-page opcode byte for the packed form (the scalar form adds
    /// an `F3` prefix).
    pub fn opcode(self) -> u8 {
        match self {
            SseOp::Add => 0x58,
            SseOp::Mul => 0x59,
            SseOp::Sub => 0x5C,
            SseOp::Min => 0x5D,
            SseOp::Div => 0x5E,
            SseOp::Max => 0x5F,
        }
    }

    /// Applies the operation to one lane.
    pub fn apply(self, a: f32, b: f32) -> f32 {
        match self {
            SseOp::Add => a + b,
            SseOp::Sub => a - b,
            SseOp::Mul => a * b,
            SseOp::Div => a / b,
            // IA-32 MIN/MAX return the second operand on ties/NaN.
            SseOp::Min => {
                if a < b {
                    a
                } else {
                    b
                }
            }
            SseOp::Max => {
                if a > b {
                    a
                } else {
                    b
                }
            }
        }
    }

    /// Mnemonic stem.
    pub fn mnemonic(self) -> &'static str {
        match self {
            SseOp::Add => "add",
            SseOp::Sub => "sub",
            SseOp::Mul => "mul",
            SseOp::Div => "div",
            SseOp::Min => "min",
            SseOp::Max => "max",
        }
    }
}

/// A decoded IA-32 instruction.
///
/// Relative branch targets (`Jmp`, `Jcc`, `Call`) hold the *absolute*
/// target address; the encoder converts back to relative displacements.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Inst {
    /// Two-operand ALU: `dst = dst op src` (register/memory destination).
    Alu {
        /// Operation.
        op: AluOp,
        /// Operand size.
        size: Size,
        /// Destination (also first source).
        dst: Rm,
        /// Second source.
        src: RmI,
    },
    /// ALU with register destination and memory source: `reg = reg op [m]`.
    AluRM {
        /// Operation.
        op: AluOp,
        /// Operand size.
        size: Size,
        /// Destination register.
        dst: Gpr,
        /// Memory source.
        src: Addr,
    },
    /// `TEST` — AND that only sets flags.
    Test {
        /// Operand size.
        size: Size,
        /// First operand.
        a: Rm,
        /// Second operand (register or immediate).
        b: RmI,
    },
    /// `MOV dst, src`.
    Mov {
        /// Operand size.
        size: Size,
        /// Destination.
        dst: Rm,
        /// Source.
        src: RmI,
    },
    /// `MOV reg, [mem]` (load form, distinguished for encoding fidelity).
    MovLoad {
        /// Operand size.
        size: Size,
        /// Destination register.
        dst: Gpr,
        /// Source address.
        src: Addr,
    },
    /// `MOVZX r32, r/m8|16`.
    Movzx {
        /// Destination (always 32-bit here).
        dst: Gpr,
        /// Source width (`B` or `W`).
        src_size: Size,
        /// Source.
        src: Rm,
    },
    /// `MOVSX r32, r/m8|16`.
    Movsx {
        /// Destination.
        dst: Gpr,
        /// Source width (`B` or `W`).
        src_size: Size,
        /// Source.
        src: Rm,
    },
    /// `LEA r32, [addr]`.
    Lea {
        /// Destination register.
        dst: Gpr,
        /// Address expression (not dereferenced).
        addr: Addr,
    },
    /// `XCHG r, r/m`.
    Xchg {
        /// Operand size.
        size: Size,
        /// Register operand.
        reg: Gpr,
        /// Register-or-memory operand.
        rm: Rm,
    },
    /// `PUSH r/m/imm` (32-bit operand).
    Push {
        /// Value pushed.
        src: RmI,
    },
    /// `POP r/m` (32-bit operand).
    Pop {
        /// Destination.
        dst: Rm,
    },
    /// `INC`/`DEC r/m` (CF preserved).
    IncDec {
        /// True for `INC`.
        inc: bool,
        /// Operand size.
        size: Size,
        /// Destination.
        dst: Rm,
    },
    /// `NEG r/m`.
    Neg {
        /// Operand size.
        size: Size,
        /// Destination.
        dst: Rm,
    },
    /// `NOT r/m` (flags unaffected).
    Not {
        /// Operand size.
        size: Size,
        /// Destination.
        dst: Rm,
    },
    /// Shift `r/m` by an immediate or `CL`.
    Shift {
        /// Operation.
        op: ShiftOp,
        /// Operand size.
        size: Size,
        /// Destination.
        dst: Rm,
        /// Count.
        count: ShiftCount,
    },
    /// `IMUL r32, r/m32` (two-operand form).
    ImulRm {
        /// Destination register.
        dst: Gpr,
        /// Source.
        src: Rm,
    },
    /// `IMUL r32, r/m32, imm` (three-operand form).
    ImulRmImm {
        /// Destination register.
        dst: Gpr,
        /// Source.
        src: Rm,
        /// Immediate multiplier.
        imm: i32,
    },
    /// One-operand `MUL`/`IMUL`/`DIV`/`IDIV` on `EDX:EAX`.
    MulDiv {
        /// Operation.
        op: MulDivOp,
        /// Operand size.
        size: Size,
        /// Source operand.
        src: Rm,
    },
    /// `CDQ` — sign-extend `EAX` into `EDX`.
    Cdq,
    /// `CWDE` — sign-extend `AX` into `EAX`.
    Cwde,
    /// Unconditional relative jump; `target` is absolute.
    Jmp {
        /// Absolute target address.
        target: u32,
    },
    /// Indirect jump through a register or memory slot.
    JmpInd {
        /// Target operand.
        src: Rm,
    },
    /// Conditional relative jump; `target` is absolute.
    Jcc {
        /// Condition.
        cond: Cond,
        /// Absolute target address.
        target: u32,
    },
    /// `CALL rel32`; `target` is absolute.
    Call {
        /// Absolute target address.
        target: u32,
    },
    /// Indirect call.
    CallInd {
        /// Target operand.
        src: Rm,
    },
    /// `RET` with optional stack adjustment (`RET imm16`).
    Ret {
        /// Extra bytes popped after the return address.
        pop: u16,
    },
    /// `SETcc r/m8`.
    Setcc {
        /// Condition.
        cond: Cond,
        /// Byte destination.
        dst: Rm,
    },
    /// `CMOVcc r32, r/m32`.
    Cmovcc {
        /// Condition.
        cond: Cond,
        /// Destination register.
        dst: Gpr,
        /// Source.
        src: Rm,
    },
    /// `NOP`.
    Nop,
    /// `HLT` — stops the program (used as "exit" in bare-metal tests).
    Hlt,
    /// `UD2` — guaranteed invalid opcode.
    Ud2,
    /// `INT imm8` — software interrupt (0x80 = simulated Linux syscall).
    Int {
        /// Interrupt vector.
        vector: u8,
    },
    /// `MOVS` (`ESI`→`EDI`), optionally `REP`-prefixed.
    Movs {
        /// Element size.
        size: Size,
        /// True when `REP`-prefixed (count in `ECX`).
        rep: bool,
    },
    /// `STOS` (store `AL`/`AX`/`EAX` at `EDI`), optionally `REP`-prefixed.
    Stos {
        /// Element size.
        size: Size,
        /// True when `REP`-prefixed.
        rep: bool,
    },
    // ---- x87 ----
    /// `FLD` — push a value onto the FP stack.
    Fld {
        /// Source.
        src: FpOperand,
    },
    /// `FST`/`FSTP` — store `ST(0)`.
    Fst {
        /// Destination.
        dst: FpOperand,
        /// Pop after storing.
        pop: bool,
    },
    /// `FILD m32` — push an integer converted to FP.
    Fild {
        /// Source address of a 32-bit signed integer.
        src: Addr,
    },
    /// `FISTP m32` — store `ST(0)` as a truncated 32-bit integer and pop.
    Fistp {
        /// Destination address.
        dst: Addr,
    },
    /// x87 arithmetic.
    Farith {
        /// Operation.
        op: FpArithOp,
        /// Form (operand pattern).
        form: FpArithForm,
    },
    /// `FCHS` — negate `ST(0)`.
    Fchs,
    /// `FABS`.
    Fabs,
    /// `FSQRT`.
    Fsqrt,
    /// `FXCH ST(i)` — exchange `ST(0)` and `ST(i)`.
    Fxch {
        /// Stack register index.
        i: u8,
    },
    /// `FLD1` — push 1.0.
    Fld1,
    /// `FLDZ` — push 0.0.
    Fldz,
    /// `FCOMI`/`FCOMIP`/`FUCOMI`/`FUCOMIP` — compare `ST(0)` with `ST(i)`
    /// and set `ZF`/`PF`/`CF` directly.
    Fcomi {
        /// Stack register index compared against.
        i: u8,
        /// Pop after comparing.
        pop: bool,
        /// Unordered form (`FUCOMI*`).
        unordered: bool,
    },
    // ---- MMX ----
    /// `MOVD mm, r/m32` or `MOVD r/m32, mm`.
    Movd {
        /// MMX register.
        mm: Mm,
        /// GPR-or-memory operand.
        rm: Rm,
        /// True when the MMX register is the destination.
        to_mm: bool,
    },
    /// `MOVQ mm, mm/m64` or `MOVQ mm/m64, mm`.
    Movq {
        /// MMX register.
        mm: Mm,
        /// MMX-or-memory operand.
        src: MmM,
        /// True when `mm` is the destination.
        to_mm: bool,
    },
    /// Packed MMX ALU operation.
    PAlu {
        /// Operation.
        op: MmxOp,
        /// Destination MMX register.
        dst: Mm,
        /// Source.
        src: MmM,
    },
    /// `EMMS` — leave MMX mode (empties the FP tag word).
    Emms,
    // ---- SSE ----
    /// `MOVSS xmm, m32/xmm` or `MOVSS m32, xmm` (scalar single move).
    Movss {
        /// XMM register.
        xmm: Xmm,
        /// Source/destination.
        rm: XmmM,
        /// True when `xmm` is the destination.
        to_xmm: bool,
    },
    /// `MOVAPS`/`MOVUPS` — 128-bit move; `aligned` selects `MOVAPS`.
    Movps {
        /// XMM register.
        xmm: Xmm,
        /// Source/destination.
        rm: XmmM,
        /// True when `xmm` is the destination.
        to_xmm: bool,
        /// `MOVAPS` (requires 16-byte alignment) vs `MOVUPS`.
        aligned: bool,
    },
    /// SSE arithmetic (`ADDSS`, `MULPS`, …).
    SseArith {
        /// Operation.
        op: SseOp,
        /// Scalar (`SS`) vs packed (`PS`).
        scalar: bool,
        /// Destination register.
        dst: Xmm,
        /// Source.
        src: XmmM,
    },
    /// `XORPS`.
    Xorps {
        /// Destination register.
        dst: Xmm,
        /// Source.
        src: XmmM,
    },
    /// `SQRTSS`.
    Sqrtss {
        /// Destination register.
        dst: Xmm,
        /// Source.
        src: XmmM,
    },
    /// `CVTSI2SS xmm, r/m32`.
    Cvtsi2ss {
        /// Destination register.
        dst: Xmm,
        /// Integer source.
        src: Rm,
    },
    /// `CVTTSS2SI r32, xmm/m32` (truncating).
    Cvttss2si {
        /// Destination GPR.
        dst: Gpr,
        /// Source.
        src: XmmM,
    },
    /// `UCOMISS`/`COMISS` — scalar compare setting `ZF`/`PF`/`CF`.
    Ucomiss {
        /// First operand.
        a: Xmm,
        /// Second operand.
        b: XmmM,
        /// Signaling (`COMISS`) form.
        signaling: bool,
    },
}

/// Where control goes after an instruction: the `flow` of its [`Props`]
/// row. Direct targets are absolute, as in [`Inst`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Flow {
    /// Falls through to the next instruction.
    Next,
    /// Jumps to the target.
    Jump(u32),
    /// Jumps to the target or falls through, on a condition.
    Branch(u32),
    /// Calls the target (the return comes back through `RET`).
    Call(u32),
    /// Goes through a register or memory (`JMP`/`CALL` indirect, `RET`).
    Indirect,
    /// Leaves straight-line execution: `HLT`, `UD2`, `INT`.
    Stop,
}

/// The register file an instruction works in: picks its template family
/// and the x87/MMX mode a block or trace speculates on entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Class {
    /// Integer and control flow.
    Int,
    /// The x87 stack.
    X87,
    /// MMX (aliased onto the x87 registers).
    Mmx,
    /// SSE.
    Sse,
}

/// Which [`crate::timing::Timing`] field prices an instruction (an
/// explicit memory operand adds `mem - 1`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Cost {
    /// `simple`.
    Simple,
    /// `simple + 1` (MMX).
    Mmx,
    /// `mul`.
    Mul,
    /// `div`.
    Div,
    /// `fp` (x87 and SSE arithmetic).
    Fp,
    /// `fp / 2` (x87 and SSE moves, loads, stores and compares).
    FpMove,
    /// `fp_slow` (divides and square roots).
    FpSlow,
}

/// What the translator and the timing model know about an instruction
/// apart from its operands: one row of [`Inst::props`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Props {
    /// Where control goes next.
    pub flow: Flow,
    /// The register file it works in.
    pub class: Class,
    /// EFLAGS bits it reads (flag liveness's GEN set).
    pub flags_read: u32,
    /// EFLAGS bits it writes on every execution (liveness's KILL set,
    /// and what a fused compare must produce for its branch).
    pub flags_must: u32,
    /// EFLAGS bits it may write (what a template materializes when
    /// live); a superset of `flags_must`.
    pub flags_may: u32,
    /// It may trap: memory, divide, x87 stack, `UD2`, `INT`. Cold code
    /// commits the IA-32 state register before it.
    pub can_fault: bool,
    /// Its explicit memory operand. Stack and string accesses are
    /// implicit and excluded; `LEA`'s address is not dereferenced.
    pub mem: Option<Addr>,
    /// Its IA-32 timing cost class.
    pub cost: Cost,
}

impl Props {
    fn new(class: Class, cost: Cost) -> Props {
        Props {
            flow: Flow::Next,
            class,
            flags_read: 0,
            flags_must: 0,
            flags_may: 0,
            can_fault: false,
            mem: None,
            cost,
        }
    }

    fn flow(self, flow: Flow) -> Props {
        Props { flow, ..self }
    }

    fn reads(self, flags_read: u32) -> Props {
        Props { flags_read, ..self }
    }

    fn writes(self, flags: u32) -> Props {
        Props {
            flags_must: flags,
            flags_may: flags,
            ..self
        }
    }

    /// An explicit memory operand can fault.
    fn mem(self, mem: Option<Addr>) -> Props {
        Props {
            mem,
            can_fault: self.can_fault || mem.is_some(),
            ..self
        }
    }

    fn faults(self) -> Props {
        Props {
            can_fault: true,
            ..self
        }
    }
}

impl Inst {
    /// This instruction's row: its control flow, register file, EFLAGS
    /// reads and writes, whether it can fault, its explicit memory
    /// operand and its cost class. Every variant has its own arm, so a
    /// new variant does not compile without a row; the `props_oracle`
    /// test checks each row against the interpreter.
    #[inline]
    pub fn props(&self) -> Props {
        use crate::flags::{CF, DF, STATUS};
        use Class::{Int, Mmx, Sse, X87};
        use Cost::{Div, Fp, FpMove, FpSlow, Mul, Simple};
        let p = Props::new;
        let carry = |op: AluOp| if op.reads_carry() { CF } else { 0 };
        match *self {
            Inst::Alu { op, dst, src, .. } => p(Int, Simple)
                .mem(dst.mem().or(src.mem()))
                .reads(carry(op))
                .writes(STATUS),
            Inst::AluRM { op, src, .. } => p(Int, Simple)
                .mem(Some(src))
                .reads(carry(op))
                .writes(STATUS),
            Inst::Test { a, b, .. } => p(Int, Simple).mem(a.mem().or(b.mem())).writes(STATUS),
            Inst::Mov { dst, src, .. } => p(Int, Simple).mem(dst.mem().or(src.mem())),
            Inst::MovLoad { src, .. } => p(Int, Simple).mem(Some(src)),
            Inst::Movzx { src, .. } | Inst::Movsx { src, .. } | Inst::Xchg { rm: src, .. } => {
                p(Int, Simple).mem(src.mem())
            }
            Inst::Lea { .. } | Inst::Cdq | Inst::Cwde | Inst::Nop => p(Int, Simple),
            Inst::Push { src } => p(Int, Simple).mem(src.mem()).faults(),
            Inst::Pop { dst } => p(Int, Simple).mem(dst.mem()).faults(),
            Inst::IncDec { dst, .. } => p(Int, Simple).mem(dst.mem()).writes(STATUS & !CF),
            Inst::Neg { dst, .. } => p(Int, Simple).mem(dst.mem()).writes(STATUS),
            Inst::Not { dst, .. } => p(Int, Simple).mem(dst.mem()),
            // Only a non-zero (masked) count writes the flags, so a CL
            // count may write them but need not.
            Inst::Shift { dst, count, .. } => {
                let row = p(Int, Simple).mem(dst.mem()).writes(STATUS);
                match count {
                    ShiftCount::Imm(c) if c & 0x1F != 0 => row,
                    _ => Props {
                        flags_must: 0,
                        ..row
                    },
                }
            }
            Inst::ImulRm { src, .. }
            | Inst::ImulRmImm { src, .. }
            | Inst::MulDiv {
                op: MulDivOp::Mul | MulDivOp::Imul,
                src,
                ..
            } => p(Int, Mul).mem(src.mem()).writes(STATUS),
            // DIV/IDIV leave the flags architecturally undefined; the
            // interpreter and the translator both preserve them.
            Inst::MulDiv { src, .. } => p(Int, Div).mem(src.mem()).faults(),
            Inst::Jmp { target } => p(Int, Simple).flow(Flow::Jump(target)),
            Inst::Jcc { cond, target } => p(Int, Simple)
                .flow(Flow::Branch(target))
                .reads(cond.flags_read()),
            Inst::Call { target } => p(Int, Simple).flow(Flow::Call(target)).faults(),
            Inst::JmpInd { src } => p(Int, Simple).flow(Flow::Indirect).mem(src.mem()),
            Inst::CallInd { src } => p(Int, Simple).flow(Flow::Indirect).mem(src.mem()).faults(),
            Inst::Ret { .. } => p(Int, Simple).flow(Flow::Indirect).faults(),
            Inst::Setcc { cond, dst } => p(Int, Simple).mem(dst.mem()).reads(cond.flags_read()),
            Inst::Cmovcc { cond, src, .. } => {
                p(Int, Simple).mem(src.mem()).reads(cond.flags_read())
            }
            Inst::Hlt => p(Int, Simple).flow(Flow::Stop),
            Inst::Ud2 | Inst::Int { .. } => p(Int, Simple).flow(Flow::Stop).faults(),
            Inst::Movs { .. } | Inst::Stos { .. } => p(Int, Simple).reads(DF).faults(),
            // Every x87 form can raise a stack fault.
            Inst::Fld { src: m } | Inst::Fst { dst: m, .. } => p(X87, FpMove).mem(m.mem()).faults(),
            Inst::Fild { src: a } | Inst::Fistp { dst: a } => p(X87, FpMove).mem(Some(a)).faults(),
            Inst::Farith { op, form } => {
                let cost = match op {
                    FpArithOp::Div | FpArithOp::DivR => FpSlow,
                    _ => Fp,
                };
                let mem = match form {
                    FpArithForm::St0Mem(_, a) => Some(a),
                    FpArithForm::St0Sti(_) | FpArithForm::StiSt0 { .. } => None,
                };
                p(X87, cost).mem(mem).faults()
            }
            Inst::Fchs | Inst::Fabs | Inst::Fxch { .. } | Inst::Fld1 | Inst::Fldz => {
                p(X87, FpMove).faults()
            }
            Inst::Fsqrt => p(X87, FpSlow).faults(),
            Inst::Fcomi { .. } => p(X87, FpMove).faults().writes(STATUS),
            Inst::Movd { rm, .. } => p(Mmx, Cost::Mmx).mem(rm.mem()),
            Inst::Movq { src, .. } | Inst::PAlu { src, .. } => p(Mmx, Cost::Mmx).mem(src.mem()),
            Inst::Emms => p(Mmx, Cost::Mmx),
            Inst::Movss { rm, .. }
            | Inst::Movps { rm, .. }
            | Inst::Xorps { src: rm, .. }
            | Inst::Cvttss2si { src: rm, .. } => p(Sse, FpMove).mem(rm.mem()),
            Inst::SseArith { op, src, .. } => {
                let cost = if op == SseOp::Div { FpSlow } else { Fp };
                p(Sse, cost).mem(src.mem())
            }
            Inst::Sqrtss { src, .. } => p(Sse, FpSlow).mem(src.mem()),
            Inst::Cvtsi2ss { src, .. } => p(Sse, FpMove).mem(src.mem()),
            Inst::Ucomiss { b, .. } => p(Sse, FpMove).mem(b.mem()).writes(STATUS),
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn sz(s: Size) -> &'static str {
            match s {
                Size::B => "byte",
                Size::W => "word",
                Size::D => "dword",
            }
        }
        match self {
            Inst::Alu { op, size, dst, src } => {
                write!(f, "{} {} {dst}, {src}", op.mnemonic(), sz(*size))
            }
            Inst::AluRM { op, size, dst, src } => {
                write!(f, "{} {} {dst}, {src}", op.mnemonic(), sz(*size))
            }
            Inst::Test { size, a, b } => write!(f, "test {} {a}, {b}", sz(*size)),
            Inst::Mov { size, dst, src } => write!(f, "mov {} {dst}, {src}", sz(*size)),
            Inst::MovLoad { size, dst, src } => write!(f, "mov {} {dst}, {src}", sz(*size)),
            Inst::Movzx { dst, src_size, src } => {
                write!(f, "movzx {dst}, {} {src}", sz(*src_size))
            }
            Inst::Movsx { dst, src_size, src } => {
                write!(f, "movsx {dst}, {} {src}", sz(*src_size))
            }
            Inst::Lea { dst, addr } => write!(f, "lea {dst}, {addr}"),
            Inst::Xchg { size, reg, rm } => write!(f, "xchg {} {reg}, {rm}", sz(*size)),
            Inst::Push { src } => write!(f, "push {src}"),
            Inst::Pop { dst } => write!(f, "pop {dst}"),
            Inst::IncDec { inc, size, dst } => {
                write!(
                    f,
                    "{} {} {dst}",
                    if *inc { "inc" } else { "dec" },
                    sz(*size)
                )
            }
            Inst::Neg { size, dst } => write!(f, "neg {} {dst}", sz(*size)),
            Inst::Not { size, dst } => write!(f, "not {} {dst}", sz(*size)),
            Inst::Shift {
                op,
                size,
                dst,
                count,
            } => match count {
                ShiftCount::Imm(i) => write!(f, "{} {} {dst}, {i}", op.mnemonic(), sz(*size)),
                ShiftCount::Cl => write!(f, "{} {} {dst}, cl", op.mnemonic(), sz(*size)),
            },
            Inst::ImulRm { dst, src } => write!(f, "imul {dst}, {src}"),
            Inst::ImulRmImm { dst, src, imm } => write!(f, "imul {dst}, {src}, {imm:#x}"),
            Inst::MulDiv { op, size, src } => write!(f, "{} {} {src}", op.mnemonic(), sz(*size)),
            Inst::Cdq => write!(f, "cdq"),
            Inst::Cwde => write!(f, "cwde"),
            Inst::Jmp { target } => write!(f, "jmp {target:#x}"),
            Inst::JmpInd { src } => write!(f, "jmp {src}"),
            Inst::Jcc { cond, target } => write!(f, "j{cond} {target:#x}"),
            Inst::Call { target } => write!(f, "call {target:#x}"),
            Inst::CallInd { src } => write!(f, "call {src}"),
            Inst::Ret { pop } => {
                if *pop == 0 {
                    write!(f, "ret")
                } else {
                    write!(f, "ret {pop:#x}")
                }
            }
            Inst::Setcc { cond, dst } => write!(f, "set{cond} {dst}"),
            Inst::Cmovcc { cond, dst, src } => write!(f, "cmov{cond} {dst}, {src}"),
            Inst::Nop => write!(f, "nop"),
            Inst::Hlt => write!(f, "hlt"),
            Inst::Ud2 => write!(f, "ud2"),
            Inst::Int { vector } => write!(f, "int {vector:#x}"),
            Inst::Movs { size, rep } => {
                write!(f, "{}movs{}", if *rep { "rep " } else { "" }, sz(*size))
            }
            Inst::Stos { size, rep } => {
                write!(f, "{}stos{}", if *rep { "rep " } else { "" }, sz(*size))
            }
            Inst::Fld { src } => match src {
                FpOperand::M32(a) => write!(f, "fld dword {a}"),
                FpOperand::M64(a) => write!(f, "fld qword {a}"),
                FpOperand::St(i) => write!(f, "fld st({i})"),
            },
            Inst::Fst { dst, pop } => {
                let m = if *pop { "fstp" } else { "fst" };
                match dst {
                    FpOperand::M32(a) => write!(f, "{m} dword {a}"),
                    FpOperand::M64(a) => write!(f, "{m} qword {a}"),
                    FpOperand::St(i) => write!(f, "{m} st({i})"),
                }
            }
            Inst::Fild { src } => write!(f, "fild dword {src}"),
            Inst::Fistp { dst } => write!(f, "fistp dword {dst}"),
            Inst::Farith { op, form } => match form {
                FpArithForm::St0Mem(Size2::S, a) => write!(f, "{} dword {a}", op.mnemonic()),
                FpArithForm::St0Mem(Size2::D, a) => write!(f, "{} qword {a}", op.mnemonic()),
                FpArithForm::St0Sti(i) => write!(f, "{} st(0), st({i})", op.mnemonic()),
                FpArithForm::StiSt0 { i, pop } => {
                    if *pop {
                        write!(f, "{}p st({i}), st(0)", op.mnemonic())
                    } else {
                        write!(f, "{} st({i}), st(0)", op.mnemonic())
                    }
                }
            },
            Inst::Fchs => write!(f, "fchs"),
            Inst::Fabs => write!(f, "fabs"),
            Inst::Fsqrt => write!(f, "fsqrt"),
            Inst::Fxch { i } => write!(f, "fxch st({i})"),
            Inst::Fld1 => write!(f, "fld1"),
            Inst::Fldz => write!(f, "fldz"),
            Inst::Fcomi { i, pop, unordered } => {
                let u = if *unordered { "u" } else { "" };
                let p = if *pop { "p" } else { "" };
                write!(f, "f{u}comi{p} st(0), st({i})")
            }
            Inst::Movd { mm, rm, to_mm } => {
                if *to_mm {
                    write!(f, "movd {mm}, {rm}")
                } else {
                    write!(f, "movd {rm}, {mm}")
                }
            }
            Inst::Movq { mm, src, to_mm } => {
                if *to_mm {
                    write!(f, "movq {mm}, {src}")
                } else {
                    write!(f, "movq {src}, {mm}")
                }
            }
            Inst::PAlu { op, dst, src } => write!(f, "{} {dst}, {src}", op.mnemonic()),
            Inst::Emms => write!(f, "emms"),
            Inst::Movss { xmm, rm, to_xmm } => {
                if *to_xmm {
                    write!(f, "movss {xmm}, {rm}")
                } else {
                    write!(f, "movss {rm}, {xmm}")
                }
            }
            Inst::Movps {
                xmm,
                rm,
                to_xmm,
                aligned,
            } => {
                let m = if *aligned { "movaps" } else { "movups" };
                if *to_xmm {
                    write!(f, "{m} {xmm}, {rm}")
                } else {
                    write!(f, "{m} {rm}, {xmm}")
                }
            }
            Inst::SseArith {
                op,
                scalar,
                dst,
                src,
            } => write!(
                f,
                "{}{} {dst}, {src}",
                op.mnemonic(),
                if *scalar { "ss" } else { "ps" }
            ),
            Inst::Xorps { dst, src } => write!(f, "xorps {dst}, {src}"),
            Inst::Sqrtss { dst, src } => write!(f, "sqrtss {dst}, {src}"),
            Inst::Cvtsi2ss { dst, src } => write!(f, "cvtsi2ss {dst}, {src}"),
            Inst::Cvttss2si { dst, src } => write!(f, "cvttss2si {dst}, {src}"),
            Inst::Ucomiss { a, b, signaling } => {
                write!(f, "{}comiss {a}, {b}", if *signaling { "" } else { "u" })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regs::{EAX, EBX, ECX, ESP};

    #[test]
    fn addr_display() {
        let a = Addr::base_index(EAX, EBX, 4, 16);
        assert_eq!(a.to_string(), "[eax+ebx*4+0x10]");
        assert_eq!(Addr::abs(0x1000).to_string(), "[0x1000]");
        assert_eq!(Addr::base_disp(ECX, -8).to_string(), "[ecx-0x8]");
    }

    #[test]
    #[should_panic(expected = "ESP cannot be an index")]
    fn esp_index_rejected() {
        Addr::base(EAX).with_index(ESP, 2);
    }

    #[test]
    #[should_panic(expected = "invalid scale")]
    fn bad_scale_rejected() {
        Addr::base(EAX).with_index(EBX, 3);
    }

    #[test]
    fn ends_block() {
        let flow = |i: Inst| i.props().flow;
        assert_eq!(flow(Inst::Jmp { target: 0 }), Flow::Jump(0));
        assert_eq!(flow(Inst::Ret { pop: 0 }), Flow::Indirect);
        assert_eq!(flow(Inst::Hlt), Flow::Stop);
        assert_eq!(flow(Inst::Nop), Flow::Next);
        assert_eq!(
            flow(Inst::Lea {
                dst: EAX,
                addr: Addr::abs(0)
            }),
            Flow::Next
        );
    }

    #[test]
    fn flags_read_written() {
        use crate::flags;
        let add = Inst::Alu {
            op: AluOp::Add,
            size: Size::D,
            dst: Rm::Reg(EAX),
            src: RmI::Imm(1),
        };
        assert_eq!(add.props().flags_must, flags::STATUS);
        assert_eq!(add.props().flags_read, 0);

        let adc = Inst::Alu {
            op: AluOp::Adc,
            size: Size::D,
            dst: Rm::Reg(EAX),
            src: RmI::Imm(1),
        };
        assert_eq!(adc.props().flags_read, flags::CF);

        let inc = Inst::IncDec {
            inc: true,
            size: Size::D,
            dst: Rm::Reg(EAX),
        };
        assert_eq!(inc.props().flags_must & flags::CF, 0);

        let je = Inst::Jcc {
            cond: Cond::E,
            target: 0,
        };
        assert_eq!(je.props().flags_read, flags::ZF);
    }

    #[test]
    fn mem_operand_extraction() {
        let i = Inst::Mov {
            size: Size::D,
            dst: Rm::Mem(Addr::abs(0x100)),
            src: RmI::Reg(EAX),
        };
        assert_eq!(i.props().mem, Some(Addr::abs(0x100)));
        assert!(i.props().can_fault);

        let r = Inst::Mov {
            size: Size::D,
            dst: Rm::Reg(EAX),
            src: RmI::Imm(0),
        };
        assert_eq!(r.props().mem, None);
        assert!(!r.props().can_fault);
    }

    #[test]
    fn display_smoke() {
        let i = Inst::Alu {
            op: AluOp::Add,
            size: Size::D,
            dst: Rm::Reg(EAX),
            src: RmI::Imm(4),
        };
        assert_eq!(i.to_string(), "add dword eax, 0x4");
        assert_eq!(
            Inst::Jcc {
                cond: Cond::Ne,
                target: 0x8000
            }
            .to_string(),
            "jne 0x8000"
        );
    }
}
