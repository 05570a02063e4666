//! IA-32 cycle model — the "Xeon" baseline of the paper's Figure 8.
//!
//! A deliberately simple superscalar cost model: most instructions retire
//! in a fraction of a cycle (modeled as fixed-point "milli-cycles"
//! internally would be overkill; we use per-instruction integer costs
//! chosen so typical integer code averages ~1 instruction/cycle), divides
//! and FP are slower, and — the property Figure 8 and the misalignment
//! experiment hinge on — misaligned accesses cost only a few cycles,
//! unlike the multi-thousand-cycle OS-assisted penalty on Itanium.

use crate::inst::{Cost, Inst};

/// Cost parameters for the IA-32 machine model.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Timing {
    /// Clock frequency in MHz (Figure 8 uses a 1.6 GHz Xeon).
    pub clock_mhz: u32,
    /// Extra cycles for a misaligned data access (low on IA-32).
    pub misalign_penalty: u32,
    /// Extra cycles when a conditional branch is taken.
    pub taken_branch_extra: u32,
    /// Cycles per `REP` string element beyond the first.
    pub string_element: u32,
    /// Base cost of a simple ALU/move instruction.
    pub simple: u32,
    /// Cost of a load or store.
    pub mem: u32,
    /// Cost of a multiply.
    pub mul: u32,
    /// Cost of a divide.
    pub div: u32,
    /// Cost of an x87/SSE arithmetic operation.
    pub fp: u32,
    /// Cost of FSQRT / divide-class FP.
    pub fp_slow: u32,
}

impl Default for Timing {
    /// Xeon-like defaults (1.6 GHz).
    fn default() -> Timing {
        Timing {
            clock_mhz: 1600,
            misalign_penalty: 3,
            taken_branch_extra: 1,
            string_element: 1,
            simple: 1,
            mem: 1,
            mul: 4,
            div: 24,
            fp: 4,
            fp_slow: 30,
        }
    }
}

impl Timing {
    /// Base cost of an instruction: its cost class's field, plus
    /// `mem - 1` for an explicit memory operand (misalign, branch and
    /// string extras are charged separately by the interpreter).
    pub fn cost(&self, inst: &Inst) -> u32 {
        let props = inst.props();
        let base = match props.cost {
            Cost::Simple => self.simple,
            Cost::Mmx => self.simple + 1,
            Cost::Mul => self.mul,
            Cost::Div => self.div,
            Cost::Fp => self.fp,
            Cost::FpMove => self.fp / 2,
            Cost::FpSlow => self.fp_slow,
        };
        let mem_extra = if props.mem.is_some() { self.mem - 1 } else { 0 };
        base + mem_extra
    }

    /// Converts a cycle count into seconds at this model's clock.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.clock_mhz as f64 * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flags::Size;
    use crate::inst::{AluOp, MulDivOp, Rm, RmI};
    use crate::regs::EAX;

    #[test]
    fn divide_costs_more_than_add() {
        let t = Timing::default();
        let add = Inst::Alu {
            op: AluOp::Add,
            size: Size::D,
            dst: Rm::Reg(EAX),
            src: RmI::Imm(1),
        };
        let div = Inst::MulDiv {
            op: MulDivOp::Div,
            size: Size::D,
            src: Rm::Reg(EAX),
        };
        assert!(t.cost(&div) > 10 * t.cost(&add));
    }

    #[test]
    fn misalign_penalty_is_small() {
        // The defining asymmetry vs Itanium: single-digit cycles.
        assert!(Timing::default().misalign_penalty < 10);
    }

    #[test]
    fn seconds_conversion() {
        let t = Timing::default();
        let s = t.cycles_to_seconds(1_600_000_000);
        assert!((s - 1.0).abs() < 1e-9);
    }
}
