//! EFlags liveness over a discovered region (paper §2: "computing the
//! liveness of IA-32 EFlags bits ... enables the translator to eliminate
//! redundant IA-32 EFlags updates").
//!
//! Backward dataflow: a flag is live at a point if some path reaches a
//! reader before a writer. Unknown successors (indirect branches,
//! syscalls, region exits) conservatively treat all status flags as
//! live.
//!
//! The same fixpoint also computes, per instruction, which live flags
//! *translated code* may read: there a halt, syscall, `#UD` or
//! undecodable edge ([`BlockEnd::Stop`]) reads nothing, because only
//! the engine crosses it, while indirect edges, a call's return path
//! and successors outside the window still read everything. A live
//! bit outside that mask may be left to the EFLAGS thunk.

use super::discover::{BlockEnd, DiscBlock, Region};
use ia32::flags::{DF, STATUS};
use std::ops::Range;

/// All bits treated as conservatively live at unknown edges (and
/// everywhere without flag liveness).
pub(crate) const ALL: u32 = STATUS | DF;

/// Flags at one point: `(live, read)` — those anyone may observe, and
/// of them those translated code may read.
type Masks = (u32, u32);

/// Per-block, per-instruction live-out flag masks.
#[derive(Clone, Debug, Default)]
pub struct Liveness {
    /// Per analyzed block: its start EIP and where its instructions'
    /// masks sit in `after`.
    blocks: Vec<(u32, Range<usize>)>,
    /// Flags live and read *after* each instruction, parallel to the
    /// region's instruction array (`Region::all_insts`).
    after: Vec<Masks>,
}

impl Liveness {
    /// `(live, read)` immediately after instruction `i` of the block at
    /// `start`: the bits instruction `i` must materialize, and of them
    /// those translated code may read — the rest only the engine does.
    pub fn flags_after(&self, start: u32, i: usize) -> (u32, u32) {
        let block = self.blocks.iter().find(|(s, _)| *s == start);
        block
            .and_then(|(_, range)| self.after[range.clone()].get(i))
            .copied()
            .unwrap_or((ALL, ALL))
    }
}

/// Flags live and read out of `b`, given every block's live-in: the
/// union over its successors, everything at an unknown edge or at a
/// successor outside the discovered window — except that translated
/// code reads nothing past a [`BlockEnd::Stop`].
fn live_out(b: &DiscBlock, live_in: &[Masks]) -> Masks {
    let unknown = match (b.unknown_succ, b.end) {
        (false, _) => (0, 0),
        (true, BlockEnd::Stop) => (ALL, 0),
        (true, _) => (ALL, ALL),
    };
    let known = &b.succ_blocks[..b.succs.len()];
    known
        .iter()
        .map(|s| s.map_or((ALL, ALL), |j| live_in[j as usize]))
        .fold(unknown, |(l, r), (sl, sr)| (l | sl, r | sr))
}

/// Computes flag liveness for every instruction in the region.
pub fn analyze(region: &Region) -> Liveness {
    // What each instruction does to the flags live after it, looked up
    // once: live before = (live after & kept) | read.
    let effect: Vec<(u32, u32)> = region
        .all_insts()
        .iter()
        .map(|(_, inst, _)| {
            let props = inst.props();
            (!props.flags_must, props.flags_read)
        })
        .collect();
    // Each block's backward transfer, composed over its instructions:
    // live-in = (live-out & keep) | gen.
    let transfer: Vec<(u32, u32)> = region
        .blocks
        .iter()
        .map(|b| {
            let through = |(keep, gen): (u32, u32), &(kept, read): &(u32, u32)| {
                (keep & kept, (gen & kept) | read)
            };
            effect[b.inst_range()].iter().rev().fold((!0, 0), through)
        })
        .collect();
    // live-in per block (by index in the region), iterated to a fixpoint
    // (region is tiny; a few iterations suffice). Both masks move
    // through an instruction alike: before = (after & kept) | read.
    let mut live_in = vec![(ALL, ALL); region.blocks.len()];
    for _ in 0..region.blocks.len() + 2 {
        let mut changed = false;
        for (i, b) in region.blocks.iter().enumerate().rev() {
            let (keep, gen) = transfer[i];
            let (live, read) = live_out(b, &live_in);
            let masks = ((live & keep) | gen, (read & keep) | gen);
            if live_in[i] != masks {
                live_in[i] = masks;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // Record live-after per instruction.
    let mut after = vec![(0, 0); effect.len()];
    for b in &region.blocks {
        let (mut live, mut read) = live_out(b, &live_in);
        for i in b.inst_range().rev() {
            after[i] = (live, read);
            let (kept, gen) = effect[i];
            live = (live & kept) | gen;
            read = (read & kept) | gen;
        }
    }
    Liveness {
        blocks: region
            .blocks
            .iter()
            .map(|b| (b.start, b.inst_range()))
            .collect(),
        after,
    }
}

#[cfg(test)]
mod tests {
    use super::super::discover::discover;
    use super::*;
    use ia32::asm::Asm;
    use ia32::flags;
    use ia32::inst::AluOp;
    use ia32::mem::{GuestMem, Prot};
    use ia32::regs::{EAX, EBX, ECX};

    fn region_of(f: impl FnOnce(&mut Asm)) -> Region {
        let mut a = Asm::new(0x1000);
        f(&mut a);
        let code = a.assemble();
        let mut mem = GuestMem::new();
        mem.map(0x1000, code.len().max(1) as u64, Prot::rx());
        mem.write_forced(0x1000, &code);
        discover(&mem, 0x1000)
    }

    #[test]
    fn dead_flags_between_writers() {
        // add; add; hlt — the first add's flags are overwritten by the
        // second and never read before the hlt... but hlt is an unknown
        // edge so the *second* add's flags stay live.
        let r = region_of(|a| {
            a.alu_rr(AluOp::Add, EAX, EBX);
            a.alu_rr(AluOp::Add, EAX, ECX);
            a.hlt();
        });
        let l = analyze(&r);
        assert_eq!(
            l.flags_after(0x1000, 0).0 & flags::STATUS,
            0,
            "first add's flags are dead"
        );
        assert_eq!(
            l.flags_after(0x1000, 1).0 & flags::STATUS,
            flags::STATUS,
            "second add's flags reach the unknown edge"
        );
    }

    #[test]
    fn branch_keeps_only_read_bits_live_on_loop() {
        // Loop: add / dec / jne back — inside the loop, add's flags are
        // always clobbered by dec before any read, so they are dead;
        // dec's ZF is read by jne.
        let r = region_of(|a| {
            let top = a.label();
            a.bind(top);
            a.alu_rr(AluOp::Add, EAX, ECX);
            a.dec(ECX);
            a.jcc(ia32::Cond::Ne, top);
            a.hlt();
        });
        let l = analyze(&r);
        // After `add` (idx 0): dec writes everything except CF; jne
        // reads ZF. CF survives from add only if something reads it: the
        // hlt edge is unknown-live, so CF is live-out of the jcc and
        // flows back.
        let after_add = l.flags_after(0x1000, 0).0;
        assert_eq!(
            after_add & (flags::ZF | flags::SF | flags::OF | flags::PF | flags::AF),
            0,
            "bits rewritten by dec are dead after add"
        );
        assert_ne!(after_add & flags::CF, 0, "CF escapes through the exit");
        let after_dec = l.flags_after(0x1000, 1).0;
        assert_ne!(after_dec & flags::ZF, 0);
    }

    /// A successor beyond the discovery window is an unknown edge:
    /// everything stays live there, even though the undiscovered block
    /// would overwrite the flags.
    #[test]
    fn successor_outside_the_window_keeps_everything_live() {
        use super::super::discover::MAX_BLOCKS;
        let r = region_of(|a| {
            // A chain of one-add blocks, longer than the window.
            let labels: Vec<_> = (0..MAX_BLOCKS + 5).map(|_| a.label()).collect();
            for l in labels {
                a.jmp(l);
                a.bind(l);
                a.alu_rr(AluOp::Add, EAX, ECX);
            }
            a.hlt();
        });
        assert_eq!(r.blocks.len(), MAX_BLOCKS);
        let l = analyze(&r);
        // Block 0 is the entry jmp; blocks 1.. are `add; jmp`.
        let inside = &r.blocks[MAX_BLOCKS - 2];
        assert!(inside.succ_blocks[0].is_some());
        assert_eq!(
            l.flags_after(inside.start, 0).0 & flags::STATUS,
            0,
            "the next block's add rewrites every status flag"
        );
        let last = &r.blocks[MAX_BLOCKS - 1];
        assert_eq!(last.succs.len(), 1);
        assert_eq!(last.succ_blocks[0], None, "successor is past the window");
        assert_eq!(l.flags_after(last.start, 0).0, ALL);
        assert_eq!(l.flags_after(last.start, 1).0, ALL);
    }

    /// Translated code reads nothing past a halt, syscall or `#UD`; it
    /// reads everything past an indirect edge. Either way everything is
    /// live there.
    #[test]
    fn only_the_engine_reads_past_a_stop() {
        for stop in [Asm::hlt as fn(&mut Asm), |a| a.int(0x80), Asm::ret] {
            let r = region_of(|a| {
                a.alu_rr(AluOp::Add, EAX, ECX);
                a.inst(ia32::inst::Inst::Setcc {
                    cond: ia32::Cond::Ne,
                    dst: ia32::inst::Rm::Reg(EBX),
                });
                stop(a);
            });
            let (live, read) = analyze(&r).flags_after(0x1000, 1);
            assert_eq!(live, ALL);
            let indirect = r.blocks[0].end == BlockEnd::Indirect;
            assert_eq!(read, if indirect { ALL } else { 0 });
            let (_, read) = analyze(&r).flags_after(0x1000, 0);
            assert_eq!(read & flags::ZF, flags::ZF, "the setcc reads ZF");
        }
    }

    /// The flags live after a call are the callee's live-in: a callee
    /// that rewrites every status flag before its `ret` kills them.
    #[test]
    fn flags_after_a_call_are_the_callees_live_in() {
        let r = region_of(|a| {
            let f = a.label();
            a.alu_rr(AluOp::Add, EAX, ECX);
            a.call(f);
            a.hlt();
            a.bind(f);
            a.alu_rr(AluOp::Sub, EAX, EBX);
            a.ret();
        });
        let l = analyze(&r);
        assert_eq!(l.flags_after(0x1000, 0).0 & flags::STATUS, 0);
        let f = &r.blocks[r.blocks[0].succ_blocks[0].expect("callee found") as usize];
        assert_eq!(
            l.flags_after(f.start, 0).0,
            ALL,
            "the ret is an unknown edge"
        );
    }

    /// A callee past the discovery window is an unknown successor:
    /// everything is live after the call.
    #[test]
    fn a_callee_outside_the_window_keeps_everything_live() {
        use super::super::discover::MAX_BLOCKS;
        let r = region_of(|a| {
            for _ in 0..MAX_BLOCKS - 1 {
                let next = a.label();
                a.jmp(next);
                a.bind(next);
            }
            let f = a.label();
            a.alu_rr(AluOp::Add, EAX, ECX);
            a.call(f);
            a.hlt();
            a.bind(f);
            a.alu_rr(AluOp::Sub, EAX, EBX);
            a.ret();
        });
        assert_eq!(r.blocks.len(), MAX_BLOCKS);
        let call = &r.blocks[MAX_BLOCKS - 1];
        assert_eq!(call.succ_blocks[0], None, "the callee is past the window");
        assert_eq!(analyze(&r).flags_after(call.start, 0).0, ALL);
    }

    #[test]
    fn unknown_block_defaults_to_all() {
        let l = Liveness::default();
        assert_eq!(l.flags_after(0x9999, 0).0, ALL);
    }
}
