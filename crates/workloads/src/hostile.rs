//! Hostile-guest kernels: workloads built to stress the translator's
//! survival machinery rather than its speed.
//!
//! * `sigstorm` — a tight arithmetic loop bombarded with asynchronous
//!   signals; the handler counts deliveries in a side cell and returns
//!   via `sigreturn`. The checksum must be identical with or without
//!   signals (delivery transparency).
//! * `guest_jit` — a guest-side JIT: every iteration patches the
//!   immediate of a `mov eax, imm32; ret` stub *on its own code page*
//!   and calls it, driving per-extent SMC invalidation and the
//!   thrash governor.
//! * `nested_handler` — like `sigstorm` but the handler spins long
//!   enough that a second signal can land while the first is still
//!   running (depth-bounded nesting).
//!
//! All three end with `HLT` and store a checksum at [`RESULT`] that is
//! independent of signal arrival times and SMC handling strategy: an
//! interpreter run with *no* signal plan is a valid oracle for the
//! final memory state at [`RESULT`].

use crate::int::{n, native_loop};
use crate::{prng_bytes, Workload, DATA, RESULT};
use ia32::asm::Asm;
use ia32::inst::*;
use ia32::regs::*;
use ia32::Cond;
use ipf::asm::CodeBuilder;
use ipf::inst::{Op, Src};

/// Where `build_image` places the code (fixed by the harness).
const CODE_BASE: u32 = 0x40_0000;
/// Fixed handler entry: kernels nop-pad up to this offset so the
/// address can be a `mov ebx, imm` constant in the `signal` syscall.
const HANDLER: u32 = CODE_BASE + 0x10;
/// Fixed patch-site entry for `guest_jit` (`mov eax, imm32; ret`).
const PATCH: u32 = CODE_BASE + 0x40;
/// Side cell the handlers count deliveries in — deliberately far from
/// [`RESULT`] so handler effects never feed the checksum.
const HCOUNT: u32 = DATA + 0x3_0000;

/// Simulated-Linux syscall numbers (mirrors `btlib::sys`; this crate
/// must not depend on the OS layer).
const SYS_SIGNAL: i32 = 48;
const SYS_SIGRETURN: i32 = 119;

fn rnd_data() -> Vec<(u32, Vec<u8>)> {
    vec![(DATA, prng_bytes(0x5EED, 0x1_0000))]
}

/// Pads with `NOP` until the cursor reaches `addr`.
fn pad_to(a: &mut Asm, addr: u32) {
    assert!(a.here() <= addr, "code overran fixed offset {addr:#x}");
    while a.here() < addr {
        a.nop();
    }
}

/// Emits `signal(HANDLER)` registration.
fn register_handler(a: &mut Asm) {
    a.mov_ri(EAX, SYS_SIGNAL);
    a.mov_ri(EBX, HANDLER as i32);
    a.int(0x80);
}

/// Emits the minimal async handler: bump [`HCOUNT`], then `sigreturn`.
/// Only touches `EAX` (restored from the 3-word signal frame) and
/// `EFLAGS` (likewise restored), so the interrupted computation cannot
/// observe it.
fn emit_counting_handler(a: &mut Asm) {
    a.mov_load(EAX, Addr::abs(HCOUNT));
    a.inc(EAX);
    a.mov_store(Addr::abs(HCOUNT), EAX);
    a.mov_ri(EAX, SYS_SIGRETURN);
    a.int(0x80);
}

// --------------------------------------------------------------------
// sigstorm
// --------------------------------------------------------------------

fn sigstorm_ia32(a: &mut Asm, iters: u32) {
    let start = a.label();
    a.jmp(start);
    pad_to(a, HANDLER);
    emit_counting_handler(a);
    a.bind(start);
    register_handler(a);
    a.mov_ri(ECX, iters as i32);
    a.mov_ri(EDI, 0);
    a.mov_ri(ESI, DATA as i32);
    let top = a.label();
    a.bind(top);
    // Data-dependent mix over the random buffer; every value lives in
    // a register the handler is guaranteed to preserve.
    a.mov_rr(EAX, ECX);
    a.alu_ri(AluOp::And, EAX, 0xFFFC);
    a.mov_load(EBX, Addr::base_index(ESI, EAX, 1, 0));
    a.lea(EDI, Addr::base_index(EBX, EDI, 2, 0));
    a.alu_rr(AluOp::Xor, EDI, ECX);
    a.dec(ECX);
    a.jcc(Cond::Ne, top);
    a.mov_store(Addr::abs(RESULT), EDI);
    a.hlt();
}

fn sigstorm_native(cb: &mut CodeBuilder, iters: u32) {
    native_loop(cb, iters, |cb| {
        cb.push(Op::And {
            d: n(3),
            a: Src::Imm(0xFFFC),
            b: n(0),
        });
        cb.stop();
        cb.push(Op::Add {
            d: n(3),
            a: Src::Reg(n(3)),
            b: n(1),
        });
        cb.stop();
        cb.push(Op::Ld {
            sz: 4,
            d: n(4),
            addr: n(3),
            spec: false,
        });
        cb.stop();
        cb.push(Op::Shladd {
            d: n(10),
            a: n(10),
            count: 1,
            b: n(4),
        });
        cb.stop();
        cb.push(Op::Xor {
            d: n(10),
            a: Src::Reg(n(10)),
            b: n(0),
        });
        cb.stop();
    });
}

// --------------------------------------------------------------------
// guest_jit
// --------------------------------------------------------------------

fn guest_jit_ia32(a: &mut Asm, iters: u32) {
    let start = a.label();
    a.jmp(start);
    pad_to(a, HANDLER);
    emit_counting_handler(a);
    pad_to(a, PATCH);
    // The stub the guest JIT rewrites: `mov eax, imm32; ret`. The
    // imm32 at PATCH+1 is overwritten every iteration.
    let stub = a.label();
    a.bind(stub);
    a.mov_ri(EAX, 0x5EED_F00D_u32 as i32);
    a.ret();
    a.bind(start);
    register_handler(a);
    a.mov_ri(ECX, iters as i32);
    a.mov_ri(EDI, 0);
    let top = a.label();
    a.bind(top);
    // Patch the stub's immediate with the loop counter, then call it.
    // The store lands on the code page: under the translator it raises
    // an SMC event every single iteration.
    a.mov_store(Addr::abs(PATCH + 1), ECX);
    a.call(stub);
    a.alu_rr(AluOp::Add, EDI, EAX);
    a.mov_rr(EAX, EDI);
    a.shift_i(ShiftOp::Shl, EAX, 5);
    a.alu_rr(AluOp::Xor, EDI, EAX);
    a.dec(ECX);
    a.jcc(Cond::Ne, top);
    a.mov_store(Addr::abs(RESULT), EDI);
    a.hlt();
}

fn guest_jit_native(cb: &mut CodeBuilder, iters: u32) {
    // Native code has no need to JIT: compute the same fold directly.
    native_loop(cb, iters, |cb| {
        cb.push(Op::Add {
            d: n(10),
            a: Src::Reg(n(10)),
            b: n(0),
        });
        cb.stop();
        cb.push(Op::Shladd {
            d: n(4),
            a: n(10),
            count: 3,
            b: n(10),
        });
        cb.stop();
        cb.push(Op::Xor {
            d: n(10),
            a: Src::Reg(n(10)),
            b: n(4),
        });
        cb.stop();
    });
}

// --------------------------------------------------------------------
// nested_handler
// --------------------------------------------------------------------

fn nested_handler_ia32(a: &mut Asm, iters: u32) {
    let start = a.label();
    a.jmp(start);
    pad_to(a, HANDLER);
    // This handler spins before returning so a second arrival can land
    // while it runs (the engine nests up to the OS depth cap). ECX is
    // saved the IA-32 way; EAX/EFLAGS come back from the signal frame.
    a.push_r(ECX);
    a.mov_load(EAX, Addr::abs(HCOUNT));
    a.inc(EAX);
    a.mov_store(Addr::abs(HCOUNT), EAX);
    a.mov_ri(ECX, 96);
    let spin = a.label();
    a.bind(spin);
    a.dec(ECX);
    a.jcc(Cond::Ne, spin);
    a.pop_r(ECX);
    a.mov_ri(EAX, SYS_SIGRETURN);
    a.int(0x80);
    a.bind(start);
    register_handler(a);
    a.mov_ri(ECX, iters as i32);
    a.mov_ri(EDI, 0);
    a.mov_ri(ESI, DATA as i32);
    let top = a.label();
    a.bind(top);
    a.mov_rr(EAX, ECX);
    a.alu_ri(AluOp::And, EAX, 0xFFF8);
    a.mov_load(EBX, Addr::base_index(ESI, EAX, 1, 0));
    a.alu_rr(AluOp::Add, EDI, EBX);
    a.mov_rr(EAX, EDI);
    a.shift_i(ShiftOp::Shr, EAX, 7);
    a.alu_rr(AluOp::Xor, EDI, EAX);
    a.alu_ri(AluOp::Add, EDI, 0x9E37);
    a.dec(ECX);
    a.jcc(Cond::Ne, top);
    a.mov_store(Addr::abs(RESULT), EDI);
    a.hlt();
}

fn nested_handler_native(cb: &mut CodeBuilder, iters: u32) {
    native_loop(cb, iters, |cb| {
        cb.push(Op::And {
            d: n(3),
            a: Src::Imm(0xFFF8),
            b: n(0),
        });
        cb.stop();
        cb.push(Op::Add {
            d: n(3),
            a: Src::Reg(n(3)),
            b: n(1),
        });
        cb.stop();
        cb.push(Op::Ld {
            sz: 4,
            d: n(4),
            addr: n(3),
            spec: false,
        });
        cb.stop();
        cb.push(Op::Add {
            d: n(10),
            a: Src::Reg(n(10)),
            b: n(4),
        });
        cb.stop();
        cb.push(Op::Add {
            d: n(10),
            a: Src::Imm(0x9E3),
            b: n(10),
        });
        cb.stop();
    });
}

// --------------------------------------------------------------------
// registry
// --------------------------------------------------------------------

/// The three hostile kernels. All have `uses_os: true`; `guest_jit`
/// additionally needs `writable_code`.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "sigstorm",
            build_ia32: sigstorm_ia32,
            build_native: sigstorm_native,
            data: rnd_data,
            scale: 40_000,
            native_fraction: 0.0,
            idle_fraction: 0.0,
            writable_code: false,
            uses_os: true,
        },
        Workload {
            name: "guest_jit",
            build_ia32: guest_jit_ia32,
            build_native: guest_jit_native,
            data: rnd_data,
            scale: 3_000,
            native_fraction: 0.0,
            idle_fraction: 0.0,
            writable_code: true,
            uses_os: true,
        },
        Workload {
            name: "nested_handler",
            build_ia32: nested_handler_ia32,
            build_native: nested_handler_native,
            data: rnd_data,
            scale: 30_000,
            native_fraction: 0.0,
            idle_fraction: 0.0,
            writable_code: false,
            uses_os: true,
        },
    ]
}
