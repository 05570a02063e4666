//! IA-32 assembler with labels, plus the program-image builder the
//! workloads and tests use to produce loadable IA-32 binaries.

use std::cell::Cell;

use crate::encode::encode;
use crate::flags::{Cond, Size};
use crate::inst::*;
use crate::regs::Gpr;

/// A forward-referenceable code label.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Label(usize);

#[derive(Clone, Copy, Debug)]
enum Item {
    Inst(Inst),
    /// Branch whose target is a label (patched at assembly).
    Branch {
        inst: Inst,
        label: Label,
    },
    Bind(Label),
}

/// A single-pass assembler with label patching.
///
/// Branch instructions taking a [`Label`] are encoded in their long
/// (rel32) forms so instruction sizes are position-independent, allowing
/// one layout pass followed by target patching.
#[derive(Debug)]
pub struct Asm {
    base: u32,
    items: Vec<Item>,
    next_label: usize,
    /// Where [`Asm::here`] resumes: how many items it has measured and
    /// their encoded size. Items are only ever appended, so padding
    /// loops (`while a.here() < target { a.nop() }`) stay linear.
    measured: Cell<(usize, u32)>,
}

impl Asm {
    /// New assembler producing code that will be loaded at `base`.
    pub fn new(base: u32) -> Asm {
        Asm {
            base,
            items: Vec::new(),
            next_label: 0,
            measured: Cell::new((0, 0)),
        }
    }

    /// The load address the code is assembled for.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Allocates a fresh label.
    pub fn label(&mut self) -> Label {
        let l = Label(self.next_label);
        self.next_label += 1;
        l
    }

    /// Binds `label` to the current position.
    pub fn bind(&mut self, label: Label) {
        self.items.push(Item::Bind(label));
    }

    /// Appends a raw instruction.
    pub fn inst(&mut self, inst: Inst) {
        self.items.push(Item::Inst(inst));
    }

    // --- ergonomic helpers for the common forms -------------------------

    /// `mov r32, imm32`.
    pub fn mov_ri(&mut self, r: Gpr, imm: i32) {
        self.inst(Inst::Mov {
            size: Size::D,
            dst: Rm::Reg(r),
            src: RmI::Imm(imm),
        });
    }

    /// `mov r32, r32`.
    pub fn mov_rr(&mut self, dst: Gpr, src: Gpr) {
        self.inst(Inst::Mov {
            size: Size::D,
            dst: Rm::Reg(dst),
            src: RmI::Reg(src),
        });
    }

    /// `mov r32, [mem]`.
    pub fn mov_load(&mut self, dst: Gpr, src: Addr) {
        self.inst(Inst::MovLoad {
            size: Size::D,
            dst,
            src,
        });
    }

    /// `mov [mem], r32`.
    pub fn mov_store(&mut self, dst: Addr, src: Gpr) {
        self.inst(Inst::Mov {
            size: Size::D,
            dst: Rm::Mem(dst),
            src: RmI::Reg(src),
        });
    }

    /// `mov dword [mem], imm32`.
    pub fn mov_mi(&mut self, dst: Addr, imm: i32) {
        self.inst(Inst::Mov {
            size: Size::D,
            dst: Rm::Mem(dst),
            src: RmI::Imm(imm),
        });
    }

    /// `op r32, r32`.
    pub fn alu_rr(&mut self, op: AluOp, dst: Gpr, src: Gpr) {
        self.inst(Inst::Alu {
            op,
            size: Size::D,
            dst: Rm::Reg(dst),
            src: RmI::Reg(src),
        });
    }

    /// `op r32, imm`.
    pub fn alu_ri(&mut self, op: AluOp, dst: Gpr, imm: i32) {
        self.inst(Inst::Alu {
            op,
            size: Size::D,
            dst: Rm::Reg(dst),
            src: RmI::Imm(imm),
        });
    }

    /// `op r32, [mem]`.
    pub fn alu_rm(&mut self, op: AluOp, dst: Gpr, src: Addr) {
        self.inst(Inst::AluRM {
            op,
            size: Size::D,
            dst,
            src,
        });
    }

    /// `lea r32, [mem]`.
    pub fn lea(&mut self, dst: Gpr, addr: Addr) {
        self.inst(Inst::Lea { dst, addr });
    }

    /// `inc r32`.
    pub fn inc(&mut self, r: Gpr) {
        self.inst(Inst::IncDec {
            inc: true,
            size: Size::D,
            dst: Rm::Reg(r),
        });
    }

    /// `dec r32`.
    pub fn dec(&mut self, r: Gpr) {
        self.inst(Inst::IncDec {
            inc: false,
            size: Size::D,
            dst: Rm::Reg(r),
        });
    }

    /// `shl/shr/sar r32, imm`.
    pub fn shift_i(&mut self, op: ShiftOp, r: Gpr, count: u8) {
        self.inst(Inst::Shift {
            op,
            size: Size::D,
            dst: Rm::Reg(r),
            count: ShiftCount::Imm(count),
        });
    }

    /// `imul r32, r/m32`.
    pub fn imul_rr(&mut self, dst: Gpr, src: Gpr) {
        self.inst(Inst::ImulRm {
            dst,
            src: Rm::Reg(src),
        });
    }

    /// One-operand `mul`/`imul`/`div`/`idiv` by a register.
    pub fn divide(&mut self, op: MulDivOp, src: Gpr) {
        self.inst(Inst::MulDiv {
            op,
            size: Size::D,
            src: Rm::Reg(src),
        });
    }

    /// `cdq`.
    pub fn cdq(&mut self) {
        self.inst(Inst::Cdq);
    }

    /// `push r32`.
    pub fn push_r(&mut self, r: Gpr) {
        self.inst(Inst::Push { src: RmI::Reg(r) });
    }

    /// `pop r32`.
    pub fn pop_r(&mut self, r: Gpr) {
        self.inst(Inst::Pop { dst: Rm::Reg(r) });
    }

    /// `cmp r32, imm` (alias for the ALU form).
    pub fn cmp_ri(&mut self, r: Gpr, imm: i32) {
        self.alu_ri(AluOp::Cmp, r, imm);
    }

    /// `cmp r32, r32`.
    pub fn cmp_rr(&mut self, a: Gpr, b: Gpr) {
        self.alu_rr(AluOp::Cmp, a, b);
    }

    /// `test r32, r32`.
    pub fn test_rr(&mut self, a: Gpr, b: Gpr) {
        self.inst(Inst::Test {
            size: Size::D,
            a: Rm::Reg(a),
            b: RmI::Reg(b),
        });
    }

    /// `jmp label`.
    pub fn jmp(&mut self, label: Label) {
        self.items.push(Item::Branch {
            inst: Inst::Jmp { target: 0 },
            label,
        });
    }

    /// `jcc label`.
    pub fn jcc(&mut self, cond: Cond, label: Label) {
        self.items.push(Item::Branch {
            inst: Inst::Jcc { cond, target: 0 },
            label,
        });
    }

    /// `call label`.
    pub fn call(&mut self, label: Label) {
        self.items.push(Item::Branch {
            inst: Inst::Call { target: 0 },
            label,
        });
    }

    /// `jmp r32` (indirect).
    pub fn jmp_r(&mut self, r: Gpr) {
        self.inst(Inst::JmpInd { src: Rm::Reg(r) });
    }

    /// `call r32` (indirect).
    pub fn call_r(&mut self, r: Gpr) {
        self.inst(Inst::CallInd { src: Rm::Reg(r) });
    }

    /// `ret`.
    pub fn ret(&mut self) {
        self.inst(Inst::Ret { pop: 0 });
    }

    /// `hlt`.
    pub fn hlt(&mut self) {
        self.inst(Inst::Hlt);
    }

    /// `int vector`.
    pub fn int(&mut self, vector: u8) {
        self.inst(Inst::Int { vector });
    }

    /// `nop`.
    pub fn nop(&mut self) {
        self.inst(Inst::Nop);
    }

    /// The current offset a label bound *now* would get (for
    /// data-in-code layouts). Computed by a dry layout pass over the
    /// items appended since the last call.
    pub fn here(&self) -> u32 {
        let (done, mut len) = self.measured.get();
        let mut scratch = Vec::with_capacity(16);
        for item in &self.items[done..] {
            if let Item::Inst(i) | Item::Branch { inst: i, .. } = item {
                len += encoded_len(i, self.base + len, &mut scratch);
            }
        }
        self.measured.set((self.items.len(), len));
        self.base + len
    }

    fn layout(&self) -> (Vec<u32>, u32) {
        // First pass: compute instruction offsets and label addresses.
        // Branch instructions always use their long encodings, whose
        // length does not depend on the displacement value.
        let mut label_addr = vec![0u32; self.next_label];
        let mut pc = self.base;
        let mut scratch = Vec::with_capacity(16);
        for item in &self.items {
            match item {
                Item::Bind(l) => label_addr[l.0] = pc,
                Item::Inst(i) | Item::Branch { inst: i, .. } => {
                    pc += encoded_len(i, pc, &mut scratch);
                }
            }
        }
        (label_addr, pc - self.base)
    }

    /// Assembles to bytes.
    ///
    /// # Panics
    ///
    /// Panics if an instruction has no valid encoding (programmer error
    /// in the operand combination) or a branch references an unbound
    /// label.
    pub fn assemble(&self) -> Vec<u8> {
        let (label_addr, total) = self.layout();
        let mut out = Vec::with_capacity(total as usize);
        let mut pc = self.base;
        for item in &self.items {
            match item {
                Item::Bind(_) => {}
                Item::Inst(i) => {
                    pc += encode(i, pc, &mut out).expect("validated in layout") as u32;
                }
                Item::Branch { inst, label } => {
                    let target = label_addr[label.0];
                    let patched = match inst {
                        Inst::Jmp { .. } => Inst::Jmp { target },
                        Inst::Jcc { cond, .. } => Inst::Jcc {
                            cond: *cond,
                            target,
                        },
                        Inst::Call { .. } => Inst::Call { target },
                        other => *other,
                    };
                    pc += encode(&patched, pc, &mut out).expect("validated in layout") as u32;
                }
            }
        }
        out
    }

    /// Resolved address of a bound label (available after layout).
    pub fn label_addr(&self, label: Label) -> u32 {
        self.layout().0[label.0]
    }
}

/// Encoded size of `inst` at `pc` (a label branch's long form does not
/// depend on its target).
fn encoded_len(inst: &Inst, pc: u32, scratch: &mut Vec<u8>) -> u32 {
    scratch.clear();
    encode(inst, pc, scratch).unwrap_or_else(|e| panic!("unencodable instruction {inst}: {e}"))
        as u32
}

/// A loadable IA-32 program image: code, data segments, entry point, and
/// stack placement. What the [`btlib`-style] loader maps into guest
/// memory.
///
/// [`btlib`-style]: crate
#[derive(Clone, Debug)]
pub struct Image {
    /// Load address of the code.
    pub code_base: u32,
    /// Code bytes.
    pub code: Vec<u8>,
    /// Entry point.
    pub entry: u32,
    /// Initialized data segments: `(address, bytes)`.
    pub data: Vec<(u32, Vec<u8>)>,
    /// Zero-initialized regions: `(address, length)`.
    pub bss: Vec<(u32, u32)>,
    /// Initial stack pointer (top of stack region).
    pub stack_top: u32,
    /// Stack region size.
    pub stack_size: u32,
    /// Whether code pages should be mapped writable (enables SMC).
    pub writable_code: bool,
}

impl Image {
    /// Builds an image from assembled code with conventional placements:
    /// 64 KiB stack below `0x7FFF_0000`.
    pub fn from_asm(asm: &Asm) -> Image {
        Image {
            code_base: asm.base(),
            code: asm.assemble(),
            entry: asm.base(),
            data: Vec::new(),
            bss: Vec::new(),
            stack_top: 0x7FFF_0000,
            stack_size: 0x1_0000,
            writable_code: false,
        }
    }

    /// Adds an initialized data segment.
    pub fn with_data(mut self, addr: u32, bytes: Vec<u8>) -> Image {
        self.data.push((addr, bytes));
        self
    }

    /// Adds a zero-initialized region.
    pub fn with_bss(mut self, addr: u32, len: u32) -> Image {
        self.bss.push((addr, len));
        self
    }

    /// Marks code pages writable (self-modifying-code capable).
    pub fn with_writable_code(mut self) -> Image {
        self.writable_code = true;
        self
    }

    /// Maps the image into `mem` and returns the initial CPU state.
    pub fn load(&self, mem: &mut crate::mem::GuestMem) -> crate::cpu::Cpu {
        use crate::mem::Prot;
        let code_prot = if self.writable_code {
            Prot::rwx()
        } else {
            Prot::rx()
        };
        mem.map(
            self.code_base as u64,
            self.code.len().max(1) as u64,
            code_prot,
        );
        mem.write_forced(self.code_base as u64, &self.code);
        for (addr, bytes) in &self.data {
            mem.map(*addr as u64, bytes.len().max(1) as u64, Prot::rw());
            mem.write_forced(*addr as u64, bytes);
        }
        for (addr, len) in &self.bss {
            mem.map(*addr as u64, *len as u64, Prot::rw());
        }
        mem.map(
            (self.stack_top - self.stack_size) as u64,
            self.stack_size as u64,
            Prot::rw(),
        );
        let mut cpu = crate::cpu::Cpu::new();
        cpu.eip = self.entry;
        cpu.set_esp(self.stack_top - 16);
        cpu
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode;
    use crate::regs::{EAX, ECX};

    #[test]
    fn forward_and_backward_labels() {
        let mut a = Asm::new(0x1000);
        let fwd = a.label();
        let back = a.label();
        a.bind(back);
        a.mov_ri(EAX, 1);
        a.jmp(fwd);
        a.mov_ri(EAX, 2); // skipped
        a.bind(fwd);
        a.jcc(Cond::E, back);
        let code = a.assemble();
        // Decode the jmp at offset 5 and verify it targets the jcc.
        let (inst, _) = decode(&code[5..], 0x1005).unwrap();
        assert_eq!(inst, Inst::Jmp { target: 0x100F });
        let (inst, _) = decode(&code[15..], 0x100F).unwrap();
        assert_eq!(
            inst,
            Inst::Jcc {
                cond: Cond::E,
                target: 0x1000
            }
        );
    }

    #[test]
    fn label_addr_query() {
        let mut a = Asm::new(0x2000);
        a.nop();
        let l = a.label();
        a.bind(l);
        a.nop();
        assert_eq!(a.label_addr(l), 0x2001);
    }

    #[test]
    fn here_resumes_and_agrees_with_the_full_layout() {
        let mut a = Asm::new(0x3000);
        assert_eq!(a.here(), 0x3000);
        let l = a.label();
        for round in 0..4 {
            a.mov_ri(EAX, round);
            if round == 1 {
                a.bind(l);
            }
            a.jcc(Cond::Ne, l);
            a.nop();
            // Asked after every append and, on odd rounds, twice.
            assert_eq!(a.here(), 0x3000 + a.layout().1);
            if round % 2 == 1 {
                assert_eq!(a.here(), 0x3000 + a.layout().1);
            }
        }
        assert_eq!(a.here(), 0x3000 + a.assemble().len() as u32);
    }

    #[test]
    fn image_loads() {
        let mut a = Asm::new(0x40_0000);
        a.mov_ri(ECX, 7);
        a.hlt();
        let img = Image::from_asm(&a).with_data(0x50_0000, vec![1, 2, 3]);
        let mut mem = crate::mem::GuestMem::new();
        let cpu = img.load(&mut mem);
        assert_eq!(cpu.eip, 0x40_0000);
        assert_eq!(mem.read(0x50_0000, 1).unwrap(), 1);
        // Code pages are non-writable by default.
        assert!(mem.write(0x40_0000, 1, 0).is_err());
    }
}
