//! The fixed mapping of IA-32 architectural state onto Itanium
//! registers, and the conversions between the two.
//!
//! IA-32 EL allocates the entire register file statically (paper §2
//! footnote 4: the whole 96-register stack, one frame). Our layout:
//!
//! | Itanium | IA-32 state |
//! |---|---|
//! | `r32`-`r39` | `EAX ECX EDX EBX ESP EBP ESI EDI` (zero-extended) |
//! | `r40` | the **IA-32 state register**: current IA-32 IP for cold-code state reconstruction |
//! | `r41` | the EFLAGS home, owned by `Eflags` (lazy; only live bits maintained) |
//! | `r42` | x87 TOS |
//! | `r43` | x87 tag word (bit per *physical* register, 1 = valid) |
//! | `r44` | x87 status word |
//! | `r45` | FP/MMX mode Boolean (1 = MMX values live in `r96`-`r103`) |
//! | `r46` | XMM format status (1 bit per XMM: 0 = packed, 1 = scalar) |
//! | `r47` | constant 1 |
//! | `r48`-`r63` | template scratch |
//! | `r64`-`r95` | hot-code renaming / backup pool |
//! | `r96`-`r103` | MMX `MM0`-`MM7` (when in MMX mode) |
//! | `r104`-`r106` | the flag thunk, owned by `Eflags`: the operands and kinds of the last deferred setters |
//! | `r108`-`r111` | the cold profile bank: the profile words a cold block loads in its head and stores at its exit |
//! | `r14`, `r15` | exit-stub payload |
//! | `f8`-`f15` | x87 *physical* registers `R0`-`R7` |
//! | `f16+3i`, `f17+3i`, `f18+3i` | `XMMi` scalar / lanes 0-1 / lanes 2-3 |
//! | `f40`-`f63` | FP scratch / renaming pool |

use crate::templates::{ArithKind, Sink};
use ia32::cpu::Cpu;
use ia32::flags::{self, Size};
use ia32::fpu::FpReg;
use ipf::inst::{Op, Src};
use ipf::machine::Machine;
use ipf::regs::{Fr, Gr, Pr, P0, R0};

/// First GR holding a guest GPR (`EAX`).
pub const GR_GUEST: u16 = 32;
/// The IA-32 state register (paper §4).
pub const GR_STATE: Gr = Gr(40);
/// The EFLAGS home; nothing outside [`Eflags`] names it.
const GR_EFLAGS: Gr = Gr(41);
/// The flag thunk. The last deferred ADD/SUB setter's zero-extended
/// operands, a logic setter's result in the first; the setter's kind,
/// as [`thunk_code`], at bit [`KIND`] of the first.
const GR_THUNK_A: Gr = Gr(104);
const GR_THUNK_B: Gr = Gr(105);
/// The zero-extended operand of the last deferred INC/DEC since, its
/// kind at bit [`KIND`]; 0 when there is none.
const GR_THUNK_INCDEC: Gr = Gr(106);
/// Where a thunk register keeps its setter's kind, above the operand.
const KIND: u32 = 32;
/// Where the marks of deferred status bits sit in the home: bit
/// `MARKS + k` set means status bit `k` lives in the thunk.
const MARKS: u32 = 32;
/// x87 top-of-stack value.
pub const GR_FPTOP: Gr = Gr(42);
/// x87 tag word (physical-register-indexed valid bits).
pub const GR_FPTAG: Gr = Gr(43);
/// x87 status word.
pub const GR_FPSTATUS: Gr = Gr(44);
/// FP/MMX aliasing mode Boolean.
pub const GR_FPMODE: Gr = Gr(45);
/// XMM format status word.
pub const GR_XMMFMT: Gr = Gr(46);
/// Always-one constant register.
pub const GR_ONE: Gr = Gr(47);
/// First template scratch GR.
pub const GR_SCRATCH: u16 = 48;
/// Number of template scratch GRs.
pub const NUM_SCRATCH: u16 = 16;
/// First hot-code renaming-pool GR.
pub const GR_POOL: u16 = 64;
/// Number of renaming-pool GRs.
pub const NUM_POOL: u16 = 32;
/// First MMX home GR.
pub const GR_MMX: u16 = 96;
/// The cold profile bank: the words of its profile record a cold block
/// loads in its head and stores at its exit (`layout::Profile::emit_head_loads`).
/// No lowering allocates them, so they live through the block's body;
/// nothing reads them across blocks.
pub(crate) const PROFILE_BANK: [Gr; 4] = [Gr(108), Gr(109), Gr(110), Gr(111)];
/// Exit-stub payload register 0.
pub const GR_PAYLOAD0: Gr = Gr(14);
/// Exit-stub payload register 1.
pub const GR_PAYLOAD1: Gr = Gr(15);

/// First FR holding an x87 physical register.
pub const FR_X87: u16 = 8;
/// First FR of the XMM bank (3 registers per XMM).
pub const FR_XMM: u16 = 16;
/// First FP scratch register.
pub const FR_SCRATCH: u16 = 40;
/// Number of FP scratch registers.
pub const NUM_FR_SCRATCH: u16 = 24;
/// First template scratch predicate.
pub const PR_SCRATCH: u16 = 1;
/// Number of scratch predicates for templates.
pub const NUM_PR_SCRATCH: u16 = 15;
/// First hot-code predicate-pool register.
pub const PR_POOL: u16 = 16;
/// Number of pool predicates.
pub const NUM_PR_POOL: u16 = 32;

/// The GR holding guest GPR number `n` (ModRM encoding order).
pub fn guest_gpr(n: u8) -> Gr {
    debug_assert!(n < 8);
    Gr(GR_GUEST + n as u16)
}

/// The GR holding MMX register `n` (valid in MMX mode).
pub fn mmx_gr(n: u8) -> Gr {
    debug_assert!(n < 8);
    Gr(GR_MMX + n as u16)
}

/// The FR holding x87 *physical* register `i`.
pub fn x87_fr(phys: u8) -> Fr {
    debug_assert!(phys < 8);
    Fr(FR_X87 + phys as u16)
}

/// The scalar-format FR of `XMMn` (lane 0 as a double).
pub fn xmm_scalar_fr(n: u8) -> Fr {
    Fr(FR_XMM + 3 * n as u16)
}

/// The packed-low FR of `XMMn` (lanes 0-1, raw).
pub fn xmm_lo_fr(n: u8) -> Fr {
    Fr(FR_XMM + 3 * n as u16 + 1)
}

/// The packed-high FR of `XMMn` (lanes 2-3, raw).
pub fn xmm_hi_fr(n: u8) -> Fr {
    Fr(FR_XMM + 3 * n as u16 + 2)
}

/// The lazy EFLAGS home: where IA-32 EFLAGS lives between
/// instructions, and the only code that reads or writes it. Templates
/// build flag bits in a scratch register and [`merge`](Eflags::merge)
/// them in; conditions, carry-ins and the string direction read it
/// through [`test`](Eflags::test), [`bit_into`](Eflags::bit_into) and
/// [`masked_into`](Eflags::masked_into); the engine crosses it with
/// [`load`](Eflags::load) and [`read`](Eflags::read). Only the bits
/// live after each instruction are kept up to date.
///
/// A status bit that only the engine can observe — live at a halt, a
/// syscall or a fault, read by no translated code first — may instead
/// be *deferred*: its setter records its kind and operands in the flag
/// thunk ([`defer`](Eflags::defer)) and marks the bit in the home's
/// high half, and [`read`](Eflags::read) computes it with `ia32::flags`
/// when the engine crosses. Translated code never reads a marked bit;
/// every eager write clears the marks of the bits it writes.
pub(crate) struct Eflags;

/// The thunk's code for a `kind` setter at `size`; never zero.
fn thunk_code(kind: ArithKind, size: Size) -> u8 {
    let k = match kind {
        ArithKind::Add | ArithKind::Inc => 1,
        ArithKind::Sub | ArithKind::Dec => 2,
        ArithKind::Logic => 3,
    };
    let size = match size {
        Size::B => 0,
        Size::W => 1,
        Size::D => 2,
    };
    k << 2 | size
}

/// The size [`thunk_code`] encoded in `code`.
fn thunk_size(code: u8) -> Size {
    match code & 3 {
        0 => Size::B,
        1 => Size::W,
        _ => Size::D,
    }
}

impl Eflags {
    /// The registers that make up the home, the thunk's included. The
    /// hot dead-code pass keeps them live at a trace's end and at every
    /// exit.
    pub(crate) const HOMES: [Gr; 4] = [GR_EFLAGS, GR_THUNK_A, GR_THUNK_B, GR_THUNK_INCDEC];

    /// Whether `g` is one of [`HOMES`](Eflags::HOMES).
    pub(crate) fn is_home(g: Gr) -> bool {
        Self::HOMES.contains(&g)
    }

    /// `home = (home & !mask) | bits`, under `qp` when given (a variable
    /// shift by zero leaves the flags alone), clearing the marks of
    /// `mask` too. `bits` must be clear outside `mask` and the marks
    /// [`marked_into`](Eflags::marked_into) put there.
    pub(crate) fn merge(sink: &mut Sink, bits: Gr, mask: u32, qp: Option<Pr>) {
        let cleared = sink.vg();
        let qp = qp.unwrap_or(P0);
        let mask = mask as u64 | (mask as u64) << MARKS;
        sink.emit_pred(
            qp,
            Op::And {
                d: cleared,
                a: Src::Imm(!mask as i64),
                b: GR_EFLAGS,
            },
        );
        sink.emit_pred(
            qp,
            Op::Or {
                d: GR_EFLAGS,
                a: Src::Reg(cleared),
                b: bits,
            },
        );
    }

    /// `d` = the marks that defer status `bits`: a flag accumulator's
    /// start when its setter defers them and merges the rest.
    pub(crate) fn marked_into(sink: &mut Sink, d: Gr, bits: u32) {
        sink.emit(Op::Or {
            d,
            a: Src::Imm(((bits as u64) << MARKS) as i64),
            b: R0,
        });
    }

    /// Marks status `bits` deferred, when the setter merges nothing.
    pub(crate) fn mark(sink: &mut Sink, bits: u32) {
        sink.emit(Op::Or {
            d: GR_EFLAGS,
            a: Src::Imm(((bits as u64) << MARKS) as i64),
            b: GR_EFLAGS,
        });
    }

    /// Records a deferred `kind` setter at `size` in the thunk: ADD and
    /// SUB (CMP, NEG) keep their zero-extended operands `a` and `b`, a
    /// logic op its result `a`, INC and DEC their operand `a` in a slot
    /// of their own — CF stays with the setter before them. The kind is
    /// ORed in above the first operand. The caller marks the bits.
    pub(crate) fn defer(sink: &mut Sink, kind: ArithKind, size: Size, a: Gr, b: Gr) {
        let tagged = |d| Op::Or {
            d,
            a: Src::Imm((thunk_code(kind, size) as i64) << KIND),
            b: a,
        };
        match kind {
            ArithKind::Inc | ArithKind::Dec => sink.emit(tagged(GR_THUNK_INCDEC)),
            _ => {
                sink.emit(tagged(GR_THUNK_A));
                if kind != ArithKind::Logic {
                    sink.mov(GR_THUNK_B, b);
                }
                // No INC/DEC after it yet.
                sink.mov(GR_THUNK_INCDEC, R0);
            }
        }
    }

    /// Fresh predicates `(set, clear)` for EFLAGS bit `pos`.
    pub(crate) fn test(sink: &mut Sink, pos: u8) -> (Pr, Pr) {
        let (pt, pf) = (sink.vp(), sink.vp());
        sink.emit(Op::Tbit {
            pt,
            pf,
            r: GR_EFLAGS,
            pos,
        });
        (pt, pf)
    }

    /// `d` = EFLAGS bit `pos` as 0 or 1.
    pub(crate) fn bit_into(sink: &mut Sink, d: Gr, pos: u8) {
        sink.emit(Op::Extr {
            d,
            a: GR_EFLAGS,
            pos,
            len: 1,
            signed: false,
        });
    }

    /// `d` = EFLAGS & `mask`.
    pub(crate) fn masked_into(sink: &mut Sink, d: Gr, mask: u32) {
        sink.emit(Op::And {
            d,
            a: Src::Imm(mask as i64),
            b: GR_EFLAGS,
        });
    }

    /// Sets the machine's home to `eflags`, nothing deferred.
    pub(crate) fn load(m: &mut Machine, eflags: u32) {
        m.gr[GR_EFLAGS.0 as usize] = eflags as u64;
    }

    /// The machine's EFLAGS, with the always-one bits set: the home's
    /// bits, each marked one computed from the thunk. The one place
    /// deferred bits are materialized.
    pub(crate) fn read(m: &Machine) -> u32 {
        let home = m.gr[GR_EFLAGS.0 as usize];
        let marks = (home >> MARKS) as u32 & flags::STATUS;
        let mut eflags = home as u32;
        if marks != 0 {
            eflags = (eflags & !marks) | (Self::thunk(m) & marks);
        }
        eflags | flags::RESERVED_ONES
    }

    /// The status flags the thunk's setters produce: CF from the last
    /// ADD/SUB/logic setter, the rest from the INC/DEC after it if any.
    fn thunk(m: &Machine) -> u32 {
        let gr = |g: Gr| m.gr[g.0 as usize];
        let (a, b) = (gr(GR_THUNK_A), gr(GR_THUNK_B) as u32);
        let main = (a >> KIND) as u8;
        let (a, size) = (a as u32, thunk_size(main));
        let f = match main >> 2 {
            1 => flags::add(a, b, size),
            2 => flags::sub(a, b, size),
            3 => flags::logic(a, size),
            _ => 0,
        };
        let x = gr(GR_THUNK_INCDEC);
        let incdec = (x >> KIND) as u8;
        let (x, size) = (x as u32, thunk_size(incdec));
        match incdec >> 2 {
            1 => (f & flags::CF) | flags::inc(x, size),
            2 => (f & flags::CF) | flags::dec(x, size),
            _ => f,
        }
    }
}

/// XMM register format, tracked per register in [`GR_XMMFMT`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum XmmFmt {
    /// Lanes live as raw packed singles in the lo/hi FRs.
    Packed,
    /// Lane 0 lives as a converted double in the scalar FR; lanes 1-3
    /// are still raw in lo/hi.
    Scalar,
}

/// Loads the IA-32 architectural state into the machine's canonical
/// registers (process start, or after an engine-side fix-up).
pub fn cpu_to_machine(cpu: &Cpu, m: &mut Machine) {
    for i in 0..8 {
        m.gr[(GR_GUEST + i) as usize] = cpu.gpr[i as usize] as u64;
    }
    m.gr[GR_STATE.0 as usize] = cpu.eip as u64;
    Eflags::load(m, cpu.eflags);
    m.gr[GR_FPTOP.0 as usize] = cpu.fpu.top as u64;
    m.gr[GR_FPTAG.0 as usize] = cpu.fpu.tags as u64;
    m.gr[GR_FPSTATUS.0 as usize] = cpu.fpu.status as u64;
    m.gr[GR_FPMODE.0 as usize] = cpu.fpu.mmx_mode as u64;
    m.gr[GR_ONE.0 as usize] = 1;
    // x87 / MMX.
    if cpu.fpu.mmx_mode {
        for i in 0..8 {
            m.gr[(GR_MMX + i) as usize] = cpu.fpu.regs[i as usize].as_mmx();
        }
        // Keep FP values too (mode flag says which side is authoritative).
        for i in 0..8u16 {
            m.fr[(FR_X87 + i) as usize] = cpu.fpu.regs[i as usize].as_f64().to_bits();
        }
    } else {
        for i in 0..8u16 {
            m.fr[(FR_X87 + i) as usize] = cpu.fpu.regs[i as usize].as_f64().to_bits();
        }
    }
    // XMM: enter in packed format.
    m.gr[GR_XMMFMT.0 as usize] = 0;
    for i in 0..8u8 {
        let v = cpu.xmm[i as usize];
        m.fr[xmm_lo_fr(i).0 as usize] = v as u64;
        m.fr[xmm_hi_fr(i).0 as usize] = (v >> 64) as u64;
    }
}

/// Reads the IA-32 architectural state back out of the machine's
/// canonical registers. `eip` must be supplied by the caller (cold code:
/// the state register; hot code: the commit map).
pub fn machine_to_cpu(m: &Machine, eip: u32) -> Cpu {
    let mut cpu = Cpu::new();
    for i in 0..8 {
        cpu.gpr[i as usize] = m.gr[(GR_GUEST + i) as usize] as u32;
    }
    cpu.eip = eip;
    cpu.eflags = Eflags::read(m);
    cpu.fpu.top = (m.gr[GR_FPTOP.0 as usize] & 7) as u8;
    cpu.fpu.tags = m.gr[GR_FPTAG.0 as usize] as u8;
    cpu.fpu.status = m.gr[GR_FPSTATUS.0 as usize] as u16;
    cpu.fpu.mmx_mode = m.gr[GR_FPMODE.0 as usize] & 1 != 0;
    for i in 0..8u16 {
        cpu.fpu.regs[i as usize] = if cpu.fpu.mmx_mode {
            FpReg::M(m.gr[(GR_MMX + i) as usize])
        } else {
            FpReg::F(f64::from_bits(m.fr[(FR_X87 + i) as usize]))
        };
    }
    let fmt = m.gr[GR_XMMFMT.0 as usize];
    for i in 0..8u8 {
        let lo = m.fr[xmm_lo_fr(i).0 as usize];
        let hi = m.fr[xmm_hi_fr(i).0 as usize];
        let mut v = lo as u128 | ((hi as u128) << 64);
        if (fmt >> i) & 1 != 0 {
            // Scalar format: lane 0's truth is the converted double.
            let lane0 = (f64::from_bits(m.fr[xmm_scalar_fr(i).0 as usize]) as f32).to_bits();
            v = (v & !0xFFFF_FFFFu128) | lane0 as u128;
        }
        cpu.xmm[i as usize] = v;
    }
    cpu
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipf::machine::{CodeArena, Timing};

    fn machine() -> Machine {
        Machine::new(CodeArena::new(0x1_0000), Timing::default())
    }

    #[test]
    fn roundtrip_integer_state() {
        let mut cpu = Cpu::new();
        for i in 0..8 {
            cpu.gpr[i] = 0x1000 + i as u32;
        }
        cpu.eip = 0x40_1234;
        cpu.eflags = ia32::flags::ZF | ia32::flags::CF | ia32::flags::RESERVED_ONES;
        let mut m = machine();
        cpu_to_machine(&cpu, &mut m);
        let back = machine_to_cpu(&m, cpu.eip);
        assert_eq!(back.gpr, cpu.gpr);
        assert_eq!(back.eip, cpu.eip);
        assert_eq!(back.eflags, cpu.eflags);
    }

    /// A marked bit comes from the thunk: CF from the last ADD/SUB/logic
    /// setter, the rest from an INC/DEC after it. Loading clears the
    /// marks.
    #[test]
    fn read_takes_marked_bits_from_the_thunk() {
        use ia32::flags::{AF, CF, OF, PF, RESERVED_ONES, SF, STATUS, ZF};
        let mut m = machine();
        Eflags::load(&mut m, STATUS);
        let tagged = |kind, size, x: u32| (thunk_code(kind, size) as u64) << KIND | x as u64;
        m.gr[GR_THUNK_A.0 as usize] = tagged(ArithKind::Add, Size::D, u32::MAX);
        m.gr[GR_THUNK_B.0 as usize] = 1;
        m.gr[GR_EFLAGS.0 as usize] |= ((CF | SF) as u64) << MARKS;
        // 0xFFFF_FFFF + 1 carries and is not negative.
        assert_eq!(Eflags::read(&m), (STATUS & !SF) | RESERVED_ONES);
        m.gr[GR_THUNK_INCDEC.0 as usize] = tagged(ArithKind::Inc, Size::B, 0x7F);
        m.gr[GR_EFLAGS.0 as usize] |= ((ZF | OF) as u64) << MARKS;
        // INC of 0x7F at B: negative, overflows, half-carries; CF stays.
        let want = CF | SF | OF | PF | AF | RESERVED_ONES;
        assert_eq!(Eflags::read(&m), want);
        Eflags::load(&mut m, ZF);
        assert_eq!(Eflags::read(&m), ZF | RESERVED_ONES);
    }

    #[test]
    fn roundtrip_fpu_state() {
        let mut cpu = Cpu::new();
        cpu.fpu.push(1.5).unwrap();
        cpu.fpu.push(-2.25).unwrap();
        let mut m = machine();
        cpu_to_machine(&cpu, &mut m);
        let back = machine_to_cpu(&m, 0);
        assert_eq!(back.fpu.top, cpu.fpu.top);
        assert_eq!(back.fpu.tags, cpu.fpu.tags);
        assert_eq!(back.fpu.st(0).unwrap(), -2.25);
        assert_eq!(back.fpu.st(1).unwrap(), 1.5);
    }

    #[test]
    fn roundtrip_mmx_mode() {
        let mut cpu = Cpu::new();
        cpu.fpu.mmx_write(3, 0xAABB_CCDD_EEFF_0011);
        let mut m = machine();
        cpu_to_machine(&cpu, &mut m);
        assert_eq!(m.gr[GR_FPMODE.0 as usize], 1);
        let back = machine_to_cpu(&m, 0);
        assert!(back.fpu.mmx_mode);
        assert_eq!(back.fpu.mmx_read(3), 0xAABB_CCDD_EEFF_0011);
    }

    #[test]
    fn roundtrip_xmm_packed() {
        let mut cpu = Cpu::new();
        cpu.xmm[2] = 0x0123_4567_89AB_CDEF_1122_3344_5566_7788;
        let mut m = machine();
        cpu_to_machine(&cpu, &mut m);
        let back = machine_to_cpu(&m, 0);
        assert_eq!(back.xmm[2], cpu.xmm[2]);
    }

    #[test]
    fn scalar_format_takes_lane0_from_double() {
        let mut m = machine();
        let cpu = Cpu::new();
        cpu_to_machine(&cpu, &mut m);
        // Simulate a block leaving XMM1 in scalar format with lane0 = 3.5.
        m.gr[GR_XMMFMT.0 as usize] = 1 << 1;
        m.fr[xmm_scalar_fr(1).0 as usize] = 3.5f64.to_bits();
        m.fr[xmm_lo_fr(1).0 as usize] = 0xDEAD_DEAD_DEAD_DEAD; // stale lane 0
        let back = machine_to_cpu(&m, 0);
        assert_eq!(back.xmm_lane(ia32::regs::Xmm::new(1), 0), 3.5);
        assert_eq!((back.xmm[1] >> 32) as u32, 0xDEAD_DEAD, "lane 1 still raw");
    }

    #[test]
    fn register_map_is_disjoint() {
        // No overlaps between the architectural banks.
        let guest: Vec<u16> = (GR_GUEST..GR_GUEST + 8).collect();
        let scratch: Vec<u16> = (GR_SCRATCH..GR_SCRATCH + NUM_SCRATCH).collect();
        let pool: Vec<u16> = (GR_POOL..GR_POOL + NUM_POOL).collect();
        let mmx: Vec<u16> = (GR_MMX..GR_MMX + 8).collect();
        let mut all = Vec::new();
        all.extend(&guest);
        all.extend([
            GR_STATE.0,
            GR_FPTOP.0,
            GR_FPTAG.0,
            GR_FPSTATUS.0,
            GR_FPMODE.0,
            GR_XMMFMT.0,
            GR_ONE.0,
        ]);
        all.extend(&scratch);
        all.extend(&pool);
        all.extend(&mmx);
        all.extend(Eflags::HOMES.map(|g| g.0));
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "register banks overlap");
        assert!(all.iter().all(|&r| r < 128));
    }

    #[test]
    fn fr_map_is_disjoint() {
        let mut all: Vec<u16> = (0..8).map(|i| x87_fr(i).0).collect();
        for i in 0..8 {
            all.push(xmm_scalar_fr(i).0);
            all.push(xmm_lo_fr(i).0);
            all.push(xmm_hi_fr(i).0);
        }
        all.extend(FR_SCRATCH..FR_SCRATCH + NUM_FR_SCRATCH);
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
        assert!(all.iter().all(|&r| (2..128).contains(&r)));
    }
}
