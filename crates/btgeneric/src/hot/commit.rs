//! Commit points and recovery maps for precise exceptions in hot code
//! (paper §4).

use crate::state;
use ia32::cpu::Cpu;
use ia32::fpu::FpReg;
use ipf::machine::Machine;
use std::collections::HashMap;

/// One recovery point: the IA-32 instruction a faulty micro-op belongs
/// to, plus the FXCHG-elimination permutation in effect there.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RecEntry {
    /// IA-32 IP to report.
    pub ia32_ip: u32,
    /// `perm[p]` = FR offset holding x87 physical register `p`.
    pub perm: [u8; 8],
}

/// Recovery data for one hot block.
#[derive(Clone, Debug, Default)]
pub struct HotData {
    /// Recovery entries.
    pub recovery: Vec<RecEntry>,
    /// Faulty micro-op location -> recovery index.
    pub by_slot: HashMap<(u64, u8), u32>,
    /// Every guest byte range `[start, end)` the trace was compiled
    /// from, ascending and disjoint: a store into any of them makes the
    /// trace stale.
    pub spans: Vec<(u32, u32)>,
}

impl HotData {
    /// Reconstructs the IA-32 state for a fault at `(ip, slot)`.
    pub fn reconstruct(&self, m: &Machine, ip: u64, slot: u8) -> Option<Cpu> {
        let idx = *self.by_slot.get(&(ip, slot))?;
        self.reconstruct_at(m, idx)
    }

    /// Reconstructs at a known recovery index (deopt path).
    pub fn reconstruct_at(&self, m: &Machine, idx: u32) -> Option<Cpu> {
        let e = self.recovery.get(idx as usize)?;
        let mut cpu = state::machine_to_cpu(m, e.ia32_ip);
        if e.perm != [0, 1, 2, 3, 4, 5, 6, 7] && !cpu.fpu.mmx_mode {
            for p in 0..8usize {
                let fr = state::x87_fr(e.perm[p]).0 as usize;
                cpu.fpu.regs[p] = FpReg::F(f64::from_bits(m.fr[fr]));
            }
        }
        Some(cpu)
    }
}
