//! The Sysmark-2002-like workload: a large, evenly-spread code footprint
//! with significant OS-kernel (natively executed) and idle time —
//! "much bigger [applications whose] execution is spread more evenly"
//! (paper §6, Figure 7).

use crate::int::shared_native_loop;
use crate::{prng_bytes, Workload, DATA, RESULT};
use ia32::asm::Asm;
use ia32::inst::*;
use ia32::regs::*;
use ia32::Cond;
use ipf::asm::CodeBuilder;
use ipf::inst::{Op, ShiftKind, Src};

fn data() -> Vec<(u32, Vec<u8>)> {
    vec![(DATA, prng_bytes(0xD0C, 0x1_0000))]
}

/// Many phases, each with its own code (large footprint); phases run few
/// times each except one moderately-hot core.
fn sysmark_ia32(a: &mut Asm, iters: u32) {
    a.mov_ri(EDI, 0);
    a.mov_ri(ESI, DATA as i32);
    // 40 "features", each a chain of 12 distinct blocks, run a handful
    // of times; one "document reflow" loop that is genuinely hot.
    for feature in 0..40 {
        a.mov_ri(ECX, 6);
        let top = a.label();
        a.bind(top);
        for blk in 0..12 {
            let l = a.label();
            a.jmp(l);
            a.bind(l);
            let off = ((feature * 12 + blk) * 16) & 0xFFF;
            a.alu_rm(AluOp::Add, EDI, Addr::base_disp(ESI, off));
            a.alu_ri(AluOp::Xor, EDI, feature * 31 + blk);
        }
        a.dec(ECX);
        a.jcc(Cond::Ne, top);
    }
    // The hot core.
    a.mov_ri(ECX, iters as i32);
    let hot = a.label();
    a.bind(hot);
    a.mov_rr(EAX, ECX);
    a.alu_ri(AluOp::And, EAX, 0xFFF);
    a.alu_rm(AluOp::Add, EDI, Addr::base_index(ESI, EAX, 4, 0));
    a.shift_i(ShiftOp::Shl, EDI, 1);
    a.alu_ri(AluOp::Xor, EDI, 0x9E37);
    a.dec(ECX);
    a.jcc(Cond::Ne, hot);
    a.mov_store(Addr::abs(RESULT), EDI);
    a.hlt();
}

fn sysmark_native(cb: &mut CodeBuilder, iters: u32) {
    shared_native_loop(cb, iters, |cb| {
        use crate::int::ngr;
        cb.push(Op::And {
            d: ngr(3),
            a: Src::Imm(0xFFF),
            b: ngr(0),
        });
        cb.stop();
        cb.push(Op::Shladd {
            d: ngr(3),
            a: ngr(3),
            count: 2,
            b: ngr(1),
        });
        cb.stop();
        cb.push(Op::Ld {
            sz: 4,
            d: ngr(4),
            addr: ngr(3),
            spec: false,
        });
        cb.stop();
        cb.push(Op::Add {
            d: ngr(10),
            a: Src::Reg(ngr(10)),
            b: ngr(4),
        });
        cb.stop();
        cb.push(Op::Shift {
            kind: ShiftKind::Shl,
            d: ngr(10),
            a: ngr(10),
            count: Src::Imm(1),
        });
        cb.stop();
        cb.push(Op::Xor {
            d: ngr(10),
            a: Src::Imm(0x9E37),
            b: ngr(10),
        });
        cb.stop();
    });
}

/// The Sysmark-like workload: 22% kernel/driver (native) time and 15%
/// idle, per the paper's Figure 7 observations.
pub fn workload() -> Workload {
    Workload {
        name: "sysmark",
        build_ia32: sysmark_ia32,
        build_native: sysmark_native,
        data,
        scale: 30_000,
        native_fraction: 0.22,
        idle_fraction: 0.15,
        writable_code: false,
        uses_os: false,
    }
}
