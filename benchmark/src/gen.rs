//! Seeded generator for the `bigcode_cold` guest: a large, flat IA-32
//! program in which nothing runs often enough to heat.
//!
//! The program is `FEATURES` "features" laid out one after another.
//! Each feature is a loop of `LOOPS` iterations over `BLOCKS` basic
//! blocks of 2–6 ALU / load / store / shift / lea instructions; a block
//! ends in a direct `jmp` or in a `cmp ecx, k; jcc` over the next block.
//! `LOOPS` is far below the default heat threshold, so every block is
//! cold-translated once and executed a handful of times: the workload's
//! cost is discovery, cold generation, install and dispatch.
//!
//! What the seed chooses: the order of block sizes, instruction kinds
//! and terminators inside each feature after the first, every register,
//! memory offset, immediate and shift count, and the initial data. What it does not
//! choose: the totals. Each feature draws its block sizes, instruction
//! kinds and terminators from fixed multisets, and every `jcc` tests the
//! loop counter with a 3-of-6 split, so static and dynamic instruction
//! counts are the same for every seed and simulated cycles move only
//! with scheduling detail. That keeps the cross-seed spread of the
//! simulated metrics far inside their 1 % bound.

use ia32::asm::{Asm, Image, Label};
use ia32::inst::{Addr, AluOp, ShiftOp};
use ia32::regs::{Gpr, EAX, EBP, EBX, ECX, EDI, EDX, ESI};
use ia32::Cond;

/// Features in the generated program.
pub const FEATURES: usize = 2_000;
/// Basic blocks per feature (before the loop tail).
pub const BLOCKS: usize = 12;
/// Iterations of each feature's loop.
pub const LOOPS: i32 = 6;

/// Load address of the generated code (≈0.7 MB of it).
pub const CODE_BASE: u32 = 0x40_0000;
/// Data buffer, placed well clear of the code.
pub const DATA: u32 = 0x100_0000;
/// Size of the data buffer.
pub const DATA_SIZE: u32 = 0x1_0000;
/// Where the program stores its 8-byte checksum.
pub const RESULT: u32 = DATA + DATA_SIZE - 16;

/// Block sizes of one feature (sum 48), shuffled per feature.
const SIZES: [u8; BLOCKS] = [2, 2, 3, 3, 4, 4, 4, 4, 5, 5, 6, 6];

#[derive(Clone, Copy)]
enum Kind {
    AluRr,
    AluRi,
    AluRm,
    Load,
    Store,
    Shift,
    Lea,
}

/// Instruction kinds of one feature (48, matching `SIZES`), shuffled
/// per feature.
const KINDS: [(Kind, usize); 7] = [
    (Kind::AluRr, 12),
    (Kind::AluRi, 8),
    (Kind::AluRm, 6),
    (Kind::Load, 8),
    (Kind::Store, 4),
    (Kind::Shift, 6),
    (Kind::Lea, 4),
];

/// Terminators of blocks `0..BLOCKS-1`: `true` = `cmp ecx,k; jcc` over
/// the next block, `false` = `jmp` to the next block. The last block
/// always jumps to the loop tail.
const COND_TERMINATORS: usize = 5;

/// Data registers; `ecx` is the loop counter and `esp` the stack.
const REGS: [Gpr; 6] = [EAX, EBX, EDX, ESI, EDI, EBP];

const ALU: [AluOp; 7] = [
    AluOp::Add,
    AluOp::Or,
    AluOp::Adc,
    AluOp::Sbb,
    AluOp::And,
    AluOp::Sub,
    AluOp::Xor,
];

const SHIFTS: [ShiftOp; 3] = [ShiftOp::Shl, ShiftOp::Shr, ShiftOp::Sar];

/// `cmp ecx, k; jcc` pairs taken on exactly three of the six loop
/// counter values 6..=1.
const SPLITS: [(i32, Cond); 4] = [(3, Cond::G), (4, Cond::L), (3, Cond::Le), (4, Cond::Ge)];

/// xorshift64* over a splitmix-scrambled seed (never zero).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

fn word(rng: &mut Rng) -> Addr {
    // Aligned words below the result slot.
    Addr::abs(DATA + 4 * rng.below((DATA_SIZE as usize - 64) / 4) as u32)
}

fn emit(a: &mut Asm, rng: &mut Rng, kind: Kind) {
    let dst = rng.pick(&REGS);
    let src = rng.pick(&REGS);
    match kind {
        Kind::AluRr => a.alu_rr(rng.pick(&ALU), dst, src),
        Kind::AluRi => a.alu_ri(rng.pick(&ALU), dst, rng.next() as i32),
        Kind::AluRm => a.alu_rm(rng.pick(&ALU), dst, word(rng)),
        Kind::Load => a.mov_load(dst, word(rng)),
        Kind::Store => a.mov_store(word(rng), src),
        Kind::Shift => a.shift_i(rng.pick(&SHIFTS), dst, 1 + rng.below(31) as u8),
        Kind::Lea => {
            let scale = rng.pick(&[1u8, 2, 4, 8]);
            a.lea(
                dst,
                Addr::base_index(src, rng.pick(&REGS), scale, rng.next() as i16 as i32),
            );
        }
    }
}

fn feature(a: &mut Asm, rng: &mut Rng) {
    let mut sizes = SIZES;
    rng.shuffle(&mut sizes);
    let mut kinds: Vec<Kind> = KINDS
        .iter()
        .flat_map(|&(k, n)| std::iter::repeat_n(k, n))
        .collect();
    rng.shuffle(&mut kinds);
    let mut cond = [false; BLOCKS - 1];
    cond[..COND_TERMINATORS].fill(true);
    rng.shuffle(&mut cond);

    // labels[i] starts block i; labels[BLOCKS] is the loop tail.
    let labels: Vec<Label> = (0..=BLOCKS).map(|_| a.label()).collect();
    let mut kinds = kinds.into_iter();
    a.mov_ri(ECX, LOOPS);
    for (i, &size) in sizes.iter().enumerate() {
        a.bind(labels[i]);
        for kind in kinds.by_ref().take(size as usize) {
            emit(a, rng, kind);
        }
        if i + 1 < BLOCKS && cond[i] {
            let (k, cc) = rng.pick(&SPLITS);
            a.cmp_ri(ECX, k);
            a.jcc(cc, labels[i + 2]);
        } else {
            a.jmp(labels[i + 1]);
        }
    }
    a.bind(labels[BLOCKS]);
    a.dec(ECX);
    a.jcc(Cond::Ne, labels[0]);
}

/// The generated guest for `seed`.
pub fn image(seed: u64) -> Image {
    let mut rng = Rng::new(seed);
    let mut a = Asm::new(CODE_BASE);
    for (i, &r) in REGS.iter().enumerate() {
        a.mov_ri(r, (rng.next() as i32) | (1 << i));
    }
    // The start-up window (the first 2 500 native slots) ends inside
    // the first feature, so that one is the same for every seed: the
    // start-up metric then compares like with like across seeds.
    feature(&mut a, &mut Rng::new(0));
    for _ in 1..FEATURES {
        feature(&mut a, &mut rng);
    }
    // Fold every data register into the checksum.
    for &r in &REGS[2..] {
        a.alu_rr(AluOp::Xor, EAX, r);
        a.alu_rr(AluOp::Add, EBX, r);
    }
    a.mov_store(Addr::abs(RESULT), EAX);
    a.mov_store(Addr::abs(RESULT + 4), EBX);
    a.hlt();
    assert!(a.here() < DATA, "generated code ran into the data buffer");

    let mut data = vec![0u8; DATA_SIZE as usize];
    for chunk in data.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next().to_le_bytes()[..chunk.len()]);
    }
    Image::from_asm(&a).with_data(DATA, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia32::interp::{Event, Interp};
    use ia32::mem::GuestMem;

    #[test]
    fn same_seed_same_image() {
        let (a, b) = (image(7), image(7));
        assert_eq!(a.code, b.code);
        assert_eq!(a.data, b.data);
    }

    #[test]
    fn different_seed_different_image() {
        let (a, b) = (image(1), image(2));
        assert_ne!(a.code, b.code);
        assert_ne!(a.data, b.data);
    }

    /// The sizes the README quotes, as static counts: 68 instructions a
    /// feature (48 body, 11 + 5 terminator, 1 counter set-up, 2 tail, 1
    /// jump to the tail) and 13 block starts.
    #[test]
    fn oracle_halts_and_sizes_hold() {
        for seed in 1..=3 {
            let img = image(seed);
            let mut mem = GuestMem::new();
            let cpu = img.load(&mut mem);
            let mut interp = Interp::new();
            interp.cpu = cpu;
            assert_eq!(interp.run(&mut mem, 10_000_000), Ok(Event::Halt));
            assert_ne!(mem.read(RESULT as u64, 8).unwrap(), 0);

            let mut insts = 0usize;
            let mut pos = 0usize;
            while pos < img.code.len() {
                let (_, len) = ia32::decode::decode(&img.code[pos..], CODE_BASE + pos as u32)
                    .expect("generated code decodes");
                insts += 1;
                pos += len;
            }
            let expect = 68 * FEATURES;
            assert!(
                insts.abs_diff(expect) * 20 <= expect,
                "{insts} static instructions"
            );
            let dynamic = interp.stats.instructions as usize;
            let expect = 670_000;
            assert!(
                dynamic.abs_diff(expect) * 20 <= expect,
                "{dynamic} retired instructions"
            );
        }
    }
}
