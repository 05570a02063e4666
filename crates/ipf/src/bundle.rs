//! Instruction bundles and dispersal templates.
//!
//! Itanium packs three 41-bit instruction slots plus a 5-bit template
//! into each 128-bit bundle; the template fixes the unit type of each
//! slot and the positions of architectural *stop bits* (instruction-group
//! boundaries). We model the ten template shapes the translator uses.
//!
//! Idealization (documented): real templates each encode a fixed stop
//! position; we carry stop bits per-slot, which slightly enlarges the
//! template space but changes neither dispersal shape nor timing.

use crate::inst::{Inst, Op, Unit};
use crate::regs::P0;
use std::fmt;

/// Slot kinds a template can demand.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SlotKind {
    /// Memory slot.
    M,
    /// Integer slot.
    I,
    /// FP slot.
    F,
    /// Branch slot.
    B,
    /// Long-immediate slot (first half of `movl`).
    L,
    /// Extended-immediate slot (second half of `movl`).
    X,
}

impl SlotKind {
    /// True if an instruction of unit class `u` may occupy this slot.
    pub const fn accepts(self, u: Unit) -> bool {
        match (self, u) {
            (SlotKind::M, Unit::M)
            | (SlotKind::I, Unit::I)
            | (SlotKind::F, Unit::F)
            | (SlotKind::B, Unit::B)
            | (SlotKind::L, Unit::L) => true,
            // A-type may disperse to M or I.
            (SlotKind::M | SlotKind::I, Unit::A) => true,
            _ => false,
        }
    }
}

/// The bundle templates (by slot-kind pattern).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum Template {
    Mii,
    Mlx,
    Mmi,
    Mfi,
    Mmf,
    Mib,
    Mbb,
    Bbb,
    Mmb,
    Mfb,
}

impl Template {
    /// All templates in bundler preference order (integer-heavy first).
    pub const fn all() -> &'static [Template] {
        &[
            Template::Mii,
            Template::Mmi,
            Template::Mfi,
            Template::Mib,
            Template::Mmf,
            Template::Mmb,
            Template::Mfb,
            Template::Mbb,
            Template::Bbb,
            Template::Mlx,
        ]
    }

    /// The slot pattern.
    pub const fn slots(self) -> [SlotKind; 3] {
        use SlotKind::*;
        match self {
            Template::Mii => [M, I, I],
            Template::Mlx => [M, L, X],
            Template::Mmi => [M, M, I],
            Template::Mfi => [M, F, I],
            Template::Mmf => [M, M, F],
            Template::Mib => [M, I, B],
            Template::Mbb => [M, B, B],
            Template::Bbb => [B, B, B],
            Template::Mmb => [M, M, B],
            Template::Mfb => [M, F, B],
        }
    }
}

/// A 3-slot bundle.
#[derive(Clone, PartialEq, Debug)]
pub struct Bundle {
    /// The template (fixes slot unit kinds).
    pub template: Template,
    /// The three instruction slots. The `X` slot of an `MLX` bundle
    /// holds a `Nop` placeholder (its bits belong to the `movl`).
    pub slots: [Inst; 3],
    /// Stop bit after each slot (instruction-group boundary).
    pub stops: [bool; 3],
}

impl Bundle {
    /// Bytes per bundle (architectural).
    pub const SIZE: u64 = 16;

    /// A bundle of three no-ops.
    pub fn nops() -> Bundle {
        Bundle {
            template: Template::Mii,
            slots: [
                Inst {
                    qp: P0,
                    op: Op::Nop { unit: Unit::M },
                },
                Inst {
                    qp: P0,
                    op: Op::Nop { unit: Unit::I },
                },
                Inst {
                    qp: P0,
                    op: Op::Nop { unit: Unit::I },
                },
            ],
            stops: [false, false, false],
        }
    }
}

impl fmt::Display for Bundle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{ .{:?}", self.template)?;
        for (i, s) in self.slots.iter().enumerate() {
            write!(f, " {}{}", s, if self.stops[i] { " ;;" } else { "" })?;
        }
        write!(f, " }}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_acceptance() {
        assert!(SlotKind::M.accepts(Unit::A));
        assert!(SlotKind::I.accepts(Unit::A));
        assert!(!SlotKind::F.accepts(Unit::A));
        assert!(SlotKind::B.accepts(Unit::B));
        assert!(!SlotKind::M.accepts(Unit::B));
        assert!(SlotKind::L.accepts(Unit::L));
    }

    #[test]
    fn template_patterns() {
        assert_eq!(
            Template::Mib.slots(),
            [SlotKind::M, SlotKind::I, SlotKind::B]
        );
        assert_eq!(Template::all().len(), 10);
    }

    #[test]
    fn nop_bundle_displays() {
        let b = Bundle::nops();
        assert!(b.to_string().contains("Mii"));
    }
}
