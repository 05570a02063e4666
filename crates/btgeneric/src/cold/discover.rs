//! Local code discovery (paper §2, Figure 1): starting from the current
//! IP, decode and build a flow graph over 1-20 neighbouring basic
//! blocks. The analysis feeds EFlags liveness and FP-stack tracking;
//! only the requested block is generated ("unexecuted blocks are never
//! generated").

use ia32::decode::decode_at;
use ia32::inst::{Flow, Inst};
use ia32::mem::GuestMem;

/// Default discovery limits (the paper: 1-20 basic blocks).
pub const MAX_BLOCKS: usize = 20;
/// Instruction budget across the region.
pub const MAX_INSTS: usize = 160;
/// Instruction budget per block (cold blocks average 4-5 IA-32 insts).
pub const MAX_BLOCK_INSTS: usize = 32;

/// How a discovered block ends.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BlockEnd {
    /// Falls through into the next instruction (block-size limit hit).
    FallThrough,
    /// Direct jump.
    Jump,
    /// Conditional branch (two direct successors).
    Cond,
    /// Call (successor = target; return address pushed).
    Call,
    /// Indirect transfer / return: successors unknown.
    Indirect,
    /// Halt, syscall, UD, or undecodable: no translated successor.
    Stop,
}

/// The direct successor EIPs of a block — none, one or two — held
/// inline; reads as a `[u32]`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Succs {
    len: u8,
    eips: [u32; 2],
}

impl Succs {
    fn push(&mut self, eip: u32) {
        self.eips[self.len as usize] = eip;
        self.len += 1;
    }
}

impl std::ops::Deref for Succs {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        &self.eips[..self.len as usize]
    }
}

/// One decoded instruction: `(ip, inst, length)`.
pub type DiscInst = (u32, Inst, u8);

/// One discovered basic block. Its decoded instructions live in the
/// region: [`Region::insts`].
#[derive(Clone, Debug)]
pub struct DiscBlock {
    /// Start address.
    pub start: u32,
    /// Where the block's instructions sit in the region's array.
    insts: std::ops::Range<usize>,
    /// The address one past the last instruction.
    end_ip: u32,
    /// Terminator class.
    pub end: BlockEnd,
    /// Direct successor EIPs (for analysis only).
    pub succs: Succs,
    /// `succs`, each resolved to its index in [`Region::blocks`]:
    /// `None` for a successor outside the discovered window (analysis
    /// must assume everything live there).
    pub succ_blocks: [Option<u8>; 2],
    /// True if some successor is unknown (indirect/stop): flag analysis
    /// must assume everything live.
    pub unknown_succ: bool,
}

impl DiscBlock {
    /// The address one past the last instruction.
    pub fn end_ip(&self) -> u32 {
        self.end_ip
    }

    /// The block's instructions, as a range of `Region::all_insts`.
    pub(crate) fn inst_range(&self) -> std::ops::Range<usize> {
        self.insts.clone()
    }

    /// Number of instructions decoded.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if nothing decoded at the block's start.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }
}

/// A discovered region: at most [`MAX_BLOCKS`] blocks, found by start
/// address with a scan (cheaper than hashing at this size), over one
/// array of at most [`MAX_INSTS`] decoded instructions — a discovery
/// allocates twice, not once or twice per block.
#[derive(Clone, Debug, Default)]
pub struct Region {
    /// Blocks in discovery order.
    pub blocks: Vec<DiscBlock>,
    /// Every block's instructions, block after block.
    insts: Vec<DiscInst>,
}

impl Region {
    /// The decoded instructions of `block` (one of `self.blocks`).
    pub fn insts(&self, block: &DiscBlock) -> &[DiscInst] {
        &self.insts[block.inst_range()]
    }

    /// Every block's instructions, block after block in `blocks` order.
    pub(crate) fn all_insts(&self) -> &[DiscInst] {
        &self.insts
    }

    /// Index in `blocks` of the block starting at `eip`, if discovered.
    pub(crate) fn index_of(&self, eip: u32) -> Option<usize> {
        self.blocks.iter().position(|b| b.start == eip)
    }

    /// The block starting at `eip`, if discovered.
    pub fn block_at(&self, eip: u32) -> Option<&DiscBlock> {
        self.index_of(eip).map(|i| &self.blocks[i])
    }
}

/// Discovers the region reachable from `entry` through direct edges.
pub fn discover(mem: &GuestMem, entry: u32) -> Region {
    let mut region = Region {
        blocks: Vec::with_capacity(MAX_BLOCKS),
        insts: Vec::with_capacity(MAX_INSTS),
    };
    let mut work = vec![entry];
    let mut total = 0usize;
    while let Some(start) = work.pop() {
        if region.index_of(start).is_some()
            || region.blocks.len() >= MAX_BLOCKS
            || total >= MAX_INSTS
        {
            continue;
        }
        let first = region.insts.len();
        let mut blk = DiscBlock {
            start,
            insts: first..first,
            end_ip: start,
            end: BlockEnd::Stop,
            succs: Succs::default(),
            succ_blocks: [None; 2],
            unknown_succ: false,
        };
        let mut ip = start;
        loop {
            if blk.len() >= MAX_BLOCK_INSTS || total >= MAX_INSTS {
                blk.end = BlockEnd::FallThrough;
                blk.succs.push(ip);
                break;
            }
            let Some((inst, len)) = decode_at(mem, ip) else {
                // Unfetchable or undecodable: the generator emits a
                // fault / #UD exit here.
                blk.end = BlockEnd::Stop;
                blk.unknown_succ = true;
                break;
            };
            let next = ip.wrapping_add(len as u32);
            region.insts.push((ip, inst, len as u8));
            blk.insts.end += 1;
            blk.end_ip = next;
            total += 1;
            match inst.props().flow {
                Flow::Next => {}
                Flow::Jump(target) => {
                    blk.end = BlockEnd::Jump;
                    blk.succs.push(target);
                    break;
                }
                Flow::Branch(target) => {
                    blk.end = BlockEnd::Cond;
                    blk.succs.push(target);
                    blk.succs.push(next);
                    break;
                }
                Flow::Call(target) => {
                    blk.end = BlockEnd::Call;
                    // The return path is reached only through the
                    // callee's RET, itself an unknown edge: what is live
                    // after the call is the callee's live-in.
                    blk.succs.push(target);
                    break;
                }
                Flow::Indirect => {
                    blk.end = BlockEnd::Indirect;
                    blk.unknown_succ = true;
                    break;
                }
                Flow::Stop => {
                    blk.end = BlockEnd::Stop;
                    blk.unknown_succ = true;
                    break;
                }
            }
            // A known block boundary splits here.
            if region.index_of(next).is_some() {
                blk.end = BlockEnd::FallThrough;
                blk.succs.push(next);
                break;
            }
            ip = next;
        }
        work.extend_from_slice(&blk.succs);
        region.blocks.push(blk);
    }
    // Every block is known now: resolve successor EIPs to indices once,
    // for the analyses that walk the flow graph.
    for i in 0..region.blocks.len() {
        let succs = region.blocks[i].succs;
        for (k, &s) in succs.iter().enumerate() {
            region.blocks[i].succ_blocks[k] = region.index_of(s).map(|j| j as u8);
        }
    }
    region
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia32::asm::Asm;
    use ia32::inst::AluOp;
    use ia32::mem::Prot;
    use ia32::regs::{EAX, ECX};

    fn setup(f: impl FnOnce(&mut Asm)) -> GuestMem {
        let mut a = Asm::new(0x1000);
        f(&mut a);
        let code = a.assemble();
        let mut mem = GuestMem::new();
        mem.map(0x1000, code.len().max(1) as u64, Prot::rx());
        mem.write_forced(0x1000, &code);
        mem
    }

    #[test]
    fn discovers_loop_structure() {
        let mem = setup(|a| {
            a.mov_ri(EAX, 0);
            a.mov_ri(ECX, 10);
            let top = a.label();
            a.bind(top);
            a.alu_rr(AluOp::Add, EAX, ECX);
            a.dec(ECX);
            a.jcc(ia32::Cond::Ne, top);
            a.hlt();
        });
        let r = discover(&mem, 0x1000);
        // Entry block ends at the jcc; successors: loop head + hlt block.
        assert!(r.blocks.len() >= 2);
        let entry = r.block_at(0x1000).unwrap();
        assert_eq!(entry.end, BlockEnd::Cond);
        assert_eq!(entry.succs.len(), 2);
        assert!(!entry.unknown_succ);
    }

    #[test]
    fn stops_at_indirect() {
        let mem = setup(|a| {
            a.mov_ri(EAX, 0x2000);
            a.jmp_r(EAX);
        });
        let r = discover(&mem, 0x1000);
        let b = r.block_at(0x1000).unwrap();
        assert_eq!(b.end, BlockEnd::Indirect);
        assert!(b.unknown_succ);
    }

    #[test]
    fn block_limit_respected() {
        let mem = setup(|a| {
            // Long chain of tiny blocks via jumps.
            let mut labels: Vec<_> = (0..40).map(|_| a.label()).collect();
            for i in 0..40 {
                a.bind(labels[i]);
                a.inc(EAX);
                if i + 1 < 40 {
                    a.jmp(labels[i + 1]);
                }
            }
            a.hlt();
            labels.clear();
        });
        let r = discover(&mem, 0x1000);
        assert!(r.blocks.len() <= MAX_BLOCKS);
    }

    #[test]
    fn undecodable_is_stop() {
        let mut mem = GuestMem::new();
        mem.map(0x1000, 0x100, Prot::rx());
        mem.write_forced(0x1000, &[0xCC]); // int3: unsupported
        let r = discover(&mem, 0x1000);
        let b = r.block_at(0x1000).unwrap();
        assert_eq!(b.end, BlockEnd::Stop);
        assert!(b.is_empty());
    }
}
