//! Differential-testing helpers: run a guest image under both the
//! reference interpreter and the translator, and compare outcomes.

use btgeneric::engine::{Config, Outcome};
use btgeneric::features::Features;
use btlib::{Process, SimOs};
use ia32::asm::Image;
use ia32::cpu::Cpu;
use ia32::fpu::FpReg;
use ia32::interp::{Event, Interp};
use ia32::mem::GuestMem;
use ia32::regs::EAX;

/// Result of one execution side.
#[derive(Debug)]
pub struct RunResult {
    /// Final architectural state.
    pub cpu: Cpu,
    /// How the run ended.
    pub end: RunEnd,
    /// Captured stdout.
    pub stdout: String,
    /// Final guest memory (for region comparisons).
    pub mem: GuestMem,
}

/// How a run ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunEnd {
    /// `HLT`.
    Halt,
    /// `exit(status)`.
    Exit(i32),
    /// Terminated on an unhandled exception at `eip`.
    Fault(u32),
    /// Budget exhausted.
    Limit,
}

/// Runs `image` under the reference interpreter with a [`SimOs`].
pub fn run_interp(image: &Image, max_steps: u64) -> RunResult {
    let mut mem = GuestMem::new();
    let cpu = image.load(&mut mem);
    let mut os = SimOs::new();
    let mut interp = Interp::new();
    interp.cpu = cpu;
    let mut steps = 0u64;
    let end = loop {
        if steps >= max_steps {
            break RunEnd::Limit;
        }
        match interp.step(&mut mem) {
            Ok(Event::Continue) => {}
            Ok(Event::Halt) => break RunEnd::Halt,
            Ok(Event::Syscall { vector }) => {
                assert_eq!(vector, 0x80, "unexpected vector in test");
                use btgeneric::btos::{BtOs, SyscallOutcome};
                match os.syscall(&mut interp.cpu, &mut mem) {
                    SyscallOutcome::Continue => {}
                    SyscallOutcome::Exit(c) => break RunEnd::Exit(c),
                }
            }
            Err(trap) => {
                // Match the engine's delivery policy: no handler ->
                // terminate; handler -> push EIP and continue there.
                match os.handler {
                    None => break RunEnd::Fault(trap.eip),
                    Some(h) => {
                        let esp = interp.cpu.esp().wrapping_sub(4);
                        if mem.write(esp as u64, 4, interp.cpu.eip as u64).is_err() {
                            break RunEnd::Fault(trap.eip);
                        }
                        interp.cpu.set_esp(esp);
                        interp.cpu.eip = h;
                    }
                }
            }
        }
        steps += 1;
    };
    RunResult {
        cpu: interp.cpu.clone(),
        end,
        stdout: os.stdout_string(),
        mem,
    }
}

/// Runs `image` under the translator with the given configuration.
pub fn run_translated(image: &Image, cfg: Config, max_slots: u64) -> (RunResult, Process<SimOs>) {
    let mut p = Process::launch_with(image, SimOs::new(), cfg).expect("launch");
    let outcome = p.run(max_slots);
    let (cpu, end) = match outcome {
        Outcome::Halted(cpu) => (*cpu, RunEnd::Halt),
        Outcome::Exited(c) => {
            // Final state after exit: reconstruct from the machine.
            let cpu = btgeneric::state::machine_to_cpu(&p.engine.machine, 0);
            (cpu, RunEnd::Exit(c))
        }
        Outcome::Terminated { cpu, .. } => {
            let eip = cpu.eip;
            (*cpu, RunEnd::Fault(eip))
        }
        Outcome::InstLimit => (
            btgeneric::state::machine_to_cpu(&p.engine.machine, 0),
            RunEnd::Limit,
        ),
    };
    let stdout = p.os.stdout_string();
    // Guest memory stays inside the process; callers compare through it.
    let result = RunResult {
        cpu,
        end,
        stdout,
        mem: GuestMem::new(),
    };
    (result, p)
}

/// Cold-only configuration (hot phase disabled).
pub fn cold_config() -> Config {
    Config {
        heat_threshold: 0,
        ..Config::default()
    }
}

/// Hot-aggressive configuration (low heating threshold so short tests
/// reach the hot phase).
pub fn hot_config() -> Config {
    Config {
        heat_threshold: 16,
        hot_candidates: 1,
        ..Config::default()
    }
}

/// `base` with each ablation knob off in turn ([`Features::ablations`]):
/// flag liveness, compare and branch fusion, misalignment avoidance, FP
/// speculation. Each pair is the knob's name and its configuration.
pub fn ablations(base: Config) -> [(&'static str, Config); 4] {
    Features::ablations().map(|(knob, features)| {
        let cfg = Config {
            features,
            ..base.clone()
        };
        (knob, cfg)
    })
}

/// Asserts that two CPU states are architecturally equivalent.
///
/// EFLAGS are compared exactly (at clean exits the translator
/// materializes all live-out flags). x87 registers are compared through
/// their value semantics: FP-mode registers by value (NaN == NaN), MMX
/// values by bits; only tag-valid registers are compared.
///
/// # Panics
///
/// Panics with a diagnostic on any mismatch.
pub fn assert_cpu_equiv(oracle: &Cpu, translated: &Cpu, what: &str) {
    assert_eq!(oracle.gpr, translated.gpr, "{what}: GPR mismatch");
    assert_eq!(
        oracle.eflags & (ia32::flags::STATUS | ia32::flags::DF),
        translated.eflags & (ia32::flags::STATUS | ia32::flags::DF),
        "{what}: EFLAGS mismatch ({:#x} vs {:#x})",
        oracle.eflags,
        translated.eflags
    );
    // The x87 stack is compared *logically* (relative to TOS): the
    // translator's TOS-mismatch fix rotates the physical registers,
    // which is architecturally unobservable in our subset (no FNSTSW).
    assert_eq!(
        oracle.fpu.depth(),
        translated.fpu.depth(),
        "{what}: FP stack depth mismatch"
    );
    assert_eq!(
        oracle.fpu.mmx_mode, translated.fpu.mmx_mode,
        "{what}: FP/MMX mode mismatch"
    );
    for k in 0..8u8 {
        assert_eq!(
            oracle.fpu.is_valid(k),
            translated.fpu.is_valid(k),
            "{what}: ST({k}) validity mismatch"
        );
        if !oracle.fpu.is_valid(k) {
            continue;
        }
        if oracle.fpu.mmx_mode {
            // MMX registers are physically indexed; in MMX mode TOS is
            // forced to 0 on both sides, so physical == logical.
            let (a, b) = (
                oracle.fpu.mmx_read(oracle.fpu.phys(k)),
                translated.fpu.mmx_read(translated.fpu.phys(k)),
            );
            assert_eq!(a, b, "{what}: MMX register ST({k}) mismatch");
        } else {
            let (x, y) = (oracle.fpu.st(k).unwrap(), translated.fpu.st(k).unwrap());
            assert!(
                x == y || (x.is_nan() && y.is_nan()),
                "{what}: ST({k}) mismatch: {x} vs {y}"
            );
        }
    }
    assert_eq!(oracle.xmm, translated.xmm, "{what}: XMM mismatch");
    let _ = FpReg::F(0.0);
}

/// Runs an image both ways, asserts equivalent outcomes/state/stdout,
/// and compares the given guest memory regions byte for byte.
pub fn differential(
    image: &Image,
    cfg: Config,
    regions: &[(u32, u32)],
    what: &str,
) -> Process<SimOs> {
    let oracle = run_interp(image, 50_000_000);
    let (trans, p) = run_translated(image, cfg, 400_000_000);
    assert_eq!(oracle.end, trans.end, "{what}: outcome mismatch");
    assert_eq!(oracle.stdout, trans.stdout, "{what}: stdout mismatch");
    match oracle.end {
        RunEnd::Halt | RunEnd::Fault(_) => {
            assert_cpu_equiv(&oracle.cpu, &trans.cpu, what);
            if oracle.end != RunEnd::Halt {
                assert_eq!(oracle.cpu.eip, trans.cpu.eip, "{what}: faulting EIP");
            }
        }
        RunEnd::Exit(_) => {
            // Registers other than the syscall result are still
            // comparable.
            assert_eq!(
                oracle.cpu.gpr[EAX.num() as usize],
                trans.cpu.gpr[EAX.num() as usize],
                "{what}: EAX at exit"
            );
        }
        RunEnd::Limit => panic!("{what}: oracle hit the step limit"),
    }
    for &(addr, len) in regions {
        for off in 0..len {
            let a = oracle.mem.read((addr + off) as u64, 1).ok();
            let b = p.engine.mem.read((addr + off) as u64, 1).ok();
            assert_eq!(a, b, "{what}: memory mismatch at {:#x}", addr + off);
        }
    }
    p
}
