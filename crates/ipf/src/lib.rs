//! # Itanium (IPF) substrate
//!
//! A functional + cycle-approximate model of an Itanium-like EPIC core:
//! 128 general registers with NaT bits, 128 FP registers, 64 predicates,
//! 8 branch registers, three-slot bundles with dispersal templates and
//! stop bits, predication, control speculation (`ld.s`/`chk.s`),
//! `frcpa`-based division, parallel (multimedia) integer ops, and a
//! high-cost misalignment fault — every architectural mechanism the
//! IA-32 Execution Layer paper's translation techniques rely on.
//!
//! The instruction type ([`inst::Op`]) doubles as the translator's
//! intermediate language: register numbers above
//! [`regs::VIRT_BASE`] are virtual and must be allocated before
//! execution.
//!
//! ## Example
//!
//! ```rust
//! use ipf::asm::CodeBuilder;
//! use ipf::inst::{Op, Src, Target};
//! use ipf::machine::{CodeArena, Machine, StopReason, Timing, VecBus};
//! use ipf::regs::{Gr, R0};
//!
//! let mut cb = CodeBuilder::new();
//! cb.push(Op::Add { d: Gr(32), a: Src::Imm(40), b: R0 });
//! cb.stop();
//! cb.push(Op::Add { d: Gr(32), a: Src::Imm(2), b: Gr(32) });
//! cb.stop();
//! cb.push(Op::Br { target: Target::Abs(0xE000_0000) }); // exit stub
//!
//! let (bundles, _) = cb.assemble(0x1_0000);
//! let mut arena = CodeArena::new(0x1_0000);
//! arena.append(bundles, 0);
//! let mut machine = Machine::new(arena, Timing::default());
//! machine.set_ip(0x1_0000, 0);
//! let mut bus = VecBus::new(64);
//! let stop = machine.run(&mut bus, 1000);
//! assert!(matches!(stop, StopReason::ExternalBranch { target: 0xE000_0000, .. }));
//! assert_eq!(machine.gr[32], 42);
//! ```

pub mod asm;
pub mod bundle;
pub mod hash;
pub mod inst;
pub mod machine;
pub mod regs;

pub use bundle::{Bundle, Template};
pub use inst::{Inst, LatClass, Op, SlotMeta, Target, Unit};
pub use machine::{
    Bus, BusError, CodeArena, CycleSplit, IssueModel, MachFault, Machine, StopReason, Tap, Timing,
};
pub use regs::{Br, Fr, Gr, Pr};
