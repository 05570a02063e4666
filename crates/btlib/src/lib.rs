#![deny(missing_docs)]
//! # BTLib — the OS abstraction layer of the IA-32 Execution Layer
//!
//! The thin, OS-specific glue of paper §3: it loads BTGeneric, performs
//! the BTOS version handshake, provides system services (memory,
//! syscalls, exception policy), and launches the IA-32 application.
//! One implementation exists per OS personality; [`SimOs`] is a
//! simulated Linux-like personality with `int 0x80` syscalls.
//!
//! ## Example
//!
//! ```rust
//! use btlib::{Process, SimOs};
//! use ia32::asm::{Asm, Image};
//! use ia32::regs::{EAX, EBX};
//!
//! // exit(42)
//! let mut a = Asm::new(0x40_0000);
//! a.mov_ri(EAX, 1); // SYS_exit
//! a.mov_ri(EBX, 42);
//! a.int(0x80);
//! let image = Image::from_asm(&a);
//!
//! let mut process = Process::launch(&image, SimOs::new()).unwrap();
//! let outcome = process.run(1_000_000);
//! assert_eq!(outcome, btgeneric::engine::Outcome::Exited(42));
//! ```

use btgeneric::btos::{
    negotiate, BtOs, ExceptionOutcome, GuestException, SyscallOutcome, Version, BTOS_MAJOR,
    BTOS_MINOR,
};
use btgeneric::engine::{Config, Engine, Outcome};
pub use btgeneric::trace::{EventKind, EventMask, TraceConfig, TraceEvent, Tracer};
use ia32::asm::Image;
use ia32::cpu::Cpu;
use ia32::mem::{GuestMem, Prot};
use ia32::regs::{EAX, EBX, ECX, EDX};

pub mod serve;

/// Simulated Linux-like syscall numbers (`int 0x80` ABI: number in
/// `EAX`, arguments in `EBX`, `ECX`, `EDX`).
pub mod sys {
    /// `exit(status)`.
    pub const EXIT: u32 = 1;
    /// `write(fd, buf, len)`.
    pub const WRITE: u32 = 4;
    /// `brk(addr)`.
    pub const BRK: u32 = 45;
    /// `gettick()` — returns a simulated tick (test aid).
    pub const GETTICK: u32 = 78;
    /// `signal(handler_eip)` — registers the process-wide exception
    /// handler (the SimOs stand-in for sigaction).
    pub const SIGNAL: u32 = 48;
    /// `sigreturn()` — returns from an *asynchronous* signal handler:
    /// pops the 3-word frame the engine pushed (`[esp]` = interrupted
    /// EIP, `[esp+4]` = EFLAGS, `[esp+8]` = EAX) and resumes the
    /// interrupted code. Synchronous trap handlers keep the plain
    /// 1-word `ret` ABI.
    pub const SIGRETURN: u32 = 119;
}

/// xorshift64 step (the same in-tree generator the chaos plan uses).
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// A deterministic asynchronous-signal schedule: seeded arrival cycles
/// plus a nesting bound. Signals whose arrival cycle has passed are
/// delivered by the engine at its next safe interruption point (dispatch
/// boundary or hot-trace commit point); signals arriving while the
/// handler stack is at `max_depth` stay queued until a `sigreturn`
/// unwinds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SignalPlan {
    /// Arrival cycles, ascending.
    pub arrivals: Vec<u64>,
    /// Maximum handler nesting depth (1 = no nesting).
    pub max_depth: u32,
}

impl SignalPlan {
    /// `count` arrivals drawn uniformly from `[0, window)` by a seeded
    /// xorshift64, sorted ascending. Depth defaults to 2 (one level of
    /// nesting); override the field for deeper storms.
    pub fn seeded(seed: u64, count: usize, window: u64) -> SignalPlan {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut arrivals: Vec<u64> = (0..count)
            .map(|_| xorshift(&mut s) % window.max(1))
            .collect();
        arrivals.sort_unstable();
        SignalPlan {
            arrivals,
            max_depth: 2,
        }
    }
}

/// Deterministic OS-side fault injection: how many upcoming requests of
/// each kind SimOs refuses before returning to normal service.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimOsFaults {
    /// Translator-side allocation requests to refuse (ENOMEM).
    pub fail_allocs: u32,
    /// `write` syscalls to fail transiently (EAGAIN) — guest-visible,
    /// so only armed for workloads/tests that retry.
    pub fail_syscalls: u32,
}

/// The simulated Linux-like OS personality.
#[derive(Debug)]
pub struct SimOs {
    /// Bytes written to fd 1 (captured "stdout").
    pub stdout: Vec<u8>,
    /// Current program break.
    pub brk: u32,
    /// Registered guest exception handler.
    pub handler: Option<u32>,
    /// Log lines from BTGeneric.
    pub log: Vec<String>,
    /// Armed fault injection (remaining refusals).
    pub faults: SimOsFaults,
    /// Allocation requests refused so far.
    pub denied_allocs: u64,
    /// Syscalls failed with EAGAIN so far.
    pub denied_syscalls: u64,
    /// Pending asynchronous-signal arrival cycles, ascending (consumed
    /// from the front). Signals never expire: one queued before the
    /// guest registers a handler delivers once registration happens.
    pub pending_signals: std::collections::VecDeque<u64>,
    /// Current handler nesting depth (poll increments, sigreturn
    /// decrements).
    pub sig_depth: u32,
    /// Maximum handler nesting depth.
    pub sig_max_depth: u32,
    /// `sigreturn` syscalls serviced.
    pub sigreturns: u64,
    /// Polls that found a due signal blocked by the depth cap (each
    /// deferred delivery counts once per poll).
    pub sig_deferrals: u64,
    tick: u64,
}

impl Default for SimOs {
    fn default() -> Self {
        Self::new()
    }
}

impl SimOs {
    /// A fresh personality.
    pub fn new() -> SimOs {
        SimOs {
            stdout: Vec::new(),
            brk: 0x6000_0000,
            handler: None,
            log: Vec::new(),
            faults: SimOsFaults::default(),
            denied_allocs: 0,
            denied_syscalls: 0,
            pending_signals: std::collections::VecDeque::new(),
            sig_depth: 0,
            sig_max_depth: 2,
            sigreturns: 0,
            sig_deferrals: 0,
            tick: 0,
        }
    }

    /// A personality with fault injection armed.
    pub fn with_faults(faults: SimOsFaults) -> SimOs {
        SimOs {
            faults,
            ..SimOs::new()
        }
    }

    /// Arms a deterministic asynchronous-signal schedule (builder
    /// style, composes with [`SimOs::with_faults`]).
    #[must_use]
    pub fn with_signals(mut self, plan: SignalPlan) -> SimOs {
        self.pending_signals = plan.arrivals.into();
        self.sig_max_depth = plan.max_depth.max(1);
        self
    }

    /// Captured stdout as UTF-8 (lossy).
    pub fn stdout_string(&self) -> String {
        String::from_utf8_lossy(&self.stdout).into_owned()
    }
}

impl BtOs for SimOs {
    fn version(&self) -> Version {
        Version {
            major: BTOS_MAJOR,
            minor: BTOS_MINOR,
        }
    }

    fn syscall(&mut self, cpu: &mut Cpu, mem: &mut GuestMem) -> SyscallOutcome {
        let num = cpu.gpr[EAX.num() as usize];
        let a1 = cpu.gpr[EBX.num() as usize];
        let a2 = cpu.gpr[ECX.num() as usize];
        let a3 = cpu.gpr[EDX.num() as usize];
        match num {
            sys::EXIT => return SyscallOutcome::Exit(a1 as i32),
            sys::WRITE => {
                if self.faults.fail_syscalls > 0 {
                    // Injected transient failure: the guest sees EAGAIN
                    // and may retry.
                    self.faults.fail_syscalls -= 1;
                    self.denied_syscalls += 1;
                    cpu.gpr[EAX.num() as usize] = -11i32 as u32; // EAGAIN
                } else if a1 == 1 {
                    match mem.read_bytes(a2 as u64, a3 as usize) {
                        Ok(bytes) => {
                            let n = bytes.len() as u32;
                            self.stdout.extend_from_slice(&bytes);
                            cpu.gpr[EAX.num() as usize] = n;
                        }
                        Err(_) => cpu.gpr[EAX.num() as usize] = -14i32 as u32, // EFAULT
                    }
                } else {
                    cpu.gpr[EAX.num() as usize] = -9i32 as u32; // EBADF
                }
            }
            sys::BRK => {
                if a1 > self.brk {
                    mem.map(self.brk as u64, (a1 - self.brk) as u64, Prot::rw());
                    self.brk = a1;
                }
                cpu.gpr[EAX.num() as usize] = self.brk;
            }
            sys::GETTICK => {
                self.tick += 1;
                cpu.gpr[EAX.num() as usize] = self.tick as u32;
            }
            sys::SIGNAL => {
                self.handler = if a1 == 0 { None } else { Some(a1) };
                cpu.gpr[EAX.num() as usize] = 0;
            }
            sys::SIGRETURN => {
                // Pop the async frame the engine pushed at delivery and
                // resume the interrupted instruction stream exactly.
                let esp = cpu.esp();
                let (Ok(eip), Ok(eflags), Ok(eax)) = (
                    mem.read(esp as u64, 4),
                    mem.read(esp as u64 + 4, 4),
                    mem.read(esp as u64 + 8, 4),
                ) else {
                    cpu.gpr[EAX.num() as usize] = -14i32 as u32; // EFAULT
                    return SyscallOutcome::Continue;
                };
                cpu.eip = eip as u32;
                cpu.eflags = eflags as u32;
                cpu.gpr[EAX.num() as usize] = eax as u32;
                cpu.set_esp(esp.wrapping_add(12));
                self.sig_depth = self.sig_depth.saturating_sub(1);
                self.sigreturns += 1;
            }
            _ => cpu.gpr[EAX.num() as usize] = -38i32 as u32, // ENOSYS
        }
        SyscallOutcome::Continue
    }

    fn exception(&mut self, _exc: GuestException, _cpu: &Cpu) -> ExceptionOutcome {
        match self.handler {
            Some(h) => ExceptionOutcome::DeliverTo(h),
            None => ExceptionOutcome::Terminate,
        }
    }

    fn alloc_pages(&mut self, mem: &mut GuestMem, addr: u64, len: u64) -> bool {
        if self.faults.fail_allocs > 0 {
            // Injected ENOMEM: the engine must degrade, not die.
            self.faults.fail_allocs -= 1;
            self.denied_allocs += 1;
            return false;
        }
        mem.map(addr, len, Prot::rw());
        true
    }

    fn poll_signal(&mut self, now: u64) -> Option<u32> {
        let handler = self.handler?;
        let due = *self.pending_signals.front()? <= now;
        if !due {
            return None;
        }
        if self.sig_depth >= self.sig_max_depth {
            self.sig_deferrals += 1;
            return None;
        }
        self.pending_signals.pop_front();
        self.sig_depth += 1;
        Some(handler)
    }

    fn signal_due(&self, now: u64) -> bool {
        self.handler.is_some()
            && self.sig_depth < self.sig_max_depth
            && self.pending_signals.front().is_some_and(|&a| a <= now)
    }

    fn signals_pending(&self) -> bool {
        self.handler.is_some()
            && self.sig_depth < self.sig_max_depth
            && !self.pending_signals.is_empty()
    }

    fn raise_signal(&mut self) -> bool {
        if self.handler.is_none() {
            return false;
        }
        // Immediately due, regardless of the current cycle.
        self.pending_signals.push_front(0);
        true
    }

    fn log(&mut self, msg: &str) {
        self.log.push(msg.to_owned());
    }
}

/// A launched IA-32 process under the Execution Layer: BTLib has loaded
/// the image, checked BTOS versions, and initialized BTGeneric (paper
/// Figure 3 A).
pub struct Process<O: BtOs> {
    /// The translation engine (BTGeneric).
    pub engine: Engine,
    /// The OS personality.
    pub os: O,
    /// The initial CPU state produced by the loader.
    pub cpu: Cpu,
    /// The negotiated BTOS version.
    pub btos_version: Version,
    /// Whether the engine has dispatched at least once (set by
    /// [`Process::run`] / [`Process::run_slice`]); later slices resume
    /// mid-stream instead of re-launching from the loader CPU state.
    started: bool,
}

/// Launch errors.
#[derive(Debug)]
pub enum LaunchError {
    /// BTOS version negotiation failed.
    Handshake(btgeneric::btos::HandshakeError),
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchError::Handshake(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LaunchError {}

impl<O: BtOs> Process<O> {
    /// Loads `image`, negotiates versions, and prepares the engine with
    /// the default configuration.
    ///
    /// # Errors
    ///
    /// [`LaunchError::Handshake`] when the BTLib/BTGeneric versions are
    /// incompatible.
    pub fn launch(image: &Image, os: O) -> Result<Process<O>, LaunchError> {
        Self::launch_with(image, os, Config::default())
    }

    /// Like [`Process::launch`] with an explicit engine configuration.
    ///
    /// # Errors
    ///
    /// Same as [`Process::launch`].
    pub fn launch_with(image: &Image, os: O, cfg: Config) -> Result<Process<O>, LaunchError> {
        let version = negotiate(os.version()).map_err(LaunchError::Handshake)?;
        let mut mem = GuestMem::new();
        let cpu = image.load(&mut mem);
        let engine = Engine::new(mem, cfg);
        Ok(Process {
            engine,
            os,
            cpu,
            btos_version: version,
            started: false,
        })
    }

    /// Runs the process for up to `max_slots` Itanium instruction slots.
    pub fn run(&mut self, max_slots: u64) -> Outcome {
        self.started = true;
        let cpu = self.cpu.clone();
        self.engine.run(&mut self.os, cpu, max_slots)
    }

    /// Runs one cooperative time slice of up to `max_slots` slots.
    ///
    /// The first slice launches the process from the loader CPU state;
    /// every later slice resumes exactly where the previous one stopped
    /// (mid-block, via [`Engine::resume`]), so a scheduler can
    /// interleave thousands of sessions without perturbing any of them.
    /// Returns [`Outcome::InstLimit`] while the slice budget runs out
    /// before the guest finishes.
    pub fn run_slice(&mut self, max_slots: u64) -> Outcome {
        if self.started {
            self.engine.resume(&mut self.os, max_slots)
        } else {
            self.run(max_slots)
        }
    }

    /// The engine's lifecycle tracer: the event ring, recorder
    /// counters, and the per-block [`ProfileTable`](
    /// btgeneric::trace::ProfileTable). Inert (empty) unless the
    /// process was launched with [`TraceConfig::enabled`].
    pub fn tracer(&self) -> &Tracer {
        &self.engine.tracer
    }

    /// Human-readable trace report: recorder counters plus the top-10
    /// hot-path table.
    ///
    /// ```rust
    /// use btlib::{Process, SimOs, TraceConfig};
    /// use btgeneric::engine::Config;
    /// use ia32::asm::{Asm, Image};
    /// use ia32::regs::{EAX, EBX};
    ///
    /// let mut a = Asm::new(0x40_0000);
    /// a.mov_ri(EAX, 1); // SYS_exit
    /// a.mov_ri(EBX, 0);
    /// a.int(0x80);
    /// let image = Image::from_asm(&a);
    ///
    /// let cfg = Config {
    ///     trace: TraceConfig::on(),
    ///     ..Config::default()
    /// };
    /// let mut p = Process::launch_with(&image, SimOs::new(), cfg).unwrap();
    /// p.run(1_000_000);
    /// assert!(p.tracer().recorded() > 0);
    /// println!("{}", p.trace_summary());
    /// ```
    pub fn trace_summary(&self) -> String {
        self.engine.trace_summary()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia32::asm::Asm;
    use ia32::inst::AluOp;
    use ia32::regs::{ESI, ESP};

    #[test]
    fn exit_syscall() {
        let mut a = Asm::new(0x40_0000);
        a.mov_ri(EAX, sys::EXIT as i32);
        a.mov_ri(EBX, 7);
        a.int(0x80);
        let image = Image::from_asm(&a);
        let mut p = Process::launch(&image, SimOs::new()).unwrap();
        assert_eq!(p.run(1_000_000), Outcome::Exited(7));
    }

    #[test]
    fn write_captures_stdout() {
        let mut a = Asm::new(0x40_0000);
        a.mov_ri(EAX, 0x0A6968); // "hi\n"
        a.alu_ri(AluOp::Sub, ESP, 4);
        a.mov_store(ia32::inst::Addr::base(ESP), EAX);
        a.mov_ri(EAX, sys::WRITE as i32);
        a.mov_ri(EBX, 1);
        a.mov_rr(ECX, ESP);
        a.mov_ri(EDX, 3);
        a.int(0x80);
        a.mov_ri(EAX, sys::EXIT as i32);
        a.mov_ri(EBX, 0);
        a.int(0x80);
        let image = Image::from_asm(&a);
        let mut p = Process::launch(&image, SimOs::new()).unwrap();
        assert_eq!(p.run(1_000_000), Outcome::Exited(0));
        assert_eq!(p.os.stdout_string(), "hi\n");
    }

    #[test]
    fn brk_extends_memory() {
        let mut a = Asm::new(0x40_0000);
        a.mov_ri(EAX, sys::BRK as i32);
        a.mov_ri(EBX, 0x6000_4000u32 as i32);
        a.int(0x80);
        a.mov_ri(ESI, 0x6000_1000u32 as i32);
        a.mov_mi(ia32::inst::Addr::base(ESI), 0x55);
        a.mov_load(EBX, ia32::inst::Addr::base(ESI));
        a.mov_ri(EAX, sys::EXIT as i32);
        a.int(0x80);
        let image = Image::from_asm(&a);
        let mut p = Process::launch(&image, SimOs::new()).unwrap();
        assert_eq!(p.run(1_000_000), Outcome::Exited(0x55));
    }

    #[test]
    fn unhandled_exception_terminates() {
        let mut a = Asm::new(0x40_0000);
        a.mov_load(EAX, ia32::inst::Addr::abs(0x10)); // unmapped
        a.hlt();
        let image = Image::from_asm(&a);
        let mut p = Process::launch(&image, SimOs::new()).unwrap();
        match p.run(1_000_000) {
            Outcome::Terminated { exc, cpu } => {
                assert_eq!(
                    exc,
                    GuestException::PageFault {
                        addr: 0x10,
                        write: false
                    }
                );
                assert_eq!(cpu.eip, 0x40_0000, "precise faulting EIP");
            }
            other => panic!("expected termination, got {other:?}"),
        }
    }

    #[test]
    fn handler_receives_divide_error() {
        // Build once to learn the handler address, then rebuild with it.
        let build = |haddr: i32| {
            let mut a = Asm::new(0x40_0000);
            let handler = a.label();
            a.mov_ri(EAX, sys::SIGNAL as i32);
            a.mov_ri(EBX, haddr);
            a.int(0x80);
            a.mov_ri(EAX, 10);
            a.mov_ri(EDX, 0);
            a.mov_ri(ECX, 0);
            a.divide(ia32::inst::MulDivOp::Div, ECX);
            a.hlt();
            a.bind(handler);
            a.mov_ri(EAX, sys::EXIT as i32);
            a.mov_ri(EBX, 99);
            a.int(0x80);
            let addr = a.label_addr(handler);
            (a, addr)
        };
        let (_, haddr) = build(0);
        let (a, haddr2) = build(haddr as i32);
        assert_eq!(haddr, haddr2, "layout stable");
        let image = Image::from_asm(&a);
        let mut p = Process::launch(&image, SimOs::new()).unwrap();
        assert_eq!(p.run(1_000_000), Outcome::Exited(99));
    }

    #[test]
    fn version_mismatch_fails_launch() {
        struct OldLib;
        impl BtOs for OldLib {
            fn version(&self) -> Version {
                Version {
                    major: BTOS_MAJOR + 1,
                    minor: 0,
                }
            }
            fn syscall(&mut self, _: &mut Cpu, _: &mut GuestMem) -> SyscallOutcome {
                SyscallOutcome::Exit(0)
            }
            fn exception(&mut self, _: GuestException, _: &Cpu) -> ExceptionOutcome {
                ExceptionOutcome::Terminate
            }
        }
        let mut a = Asm::new(0x40_0000);
        a.hlt();
        let image = Image::from_asm(&a);
        assert!(Process::launch(&image, OldLib).is_err());
    }

    /// Two-pass build of a counting loop with an async handler: the
    /// handler bumps a side cell and `sigreturn`s; the loop's checksum
    /// must be identical with and without signals (transparency).
    fn signal_loop_image(spin: i32) -> Image {
        const COUNT: u32 = 0x50_0800;
        let build = |haddr: i32| {
            let mut a = Asm::new(0x40_0000);
            let handler = a.label();
            a.mov_ri(EAX, sys::SIGNAL as i32);
            a.mov_ri(EBX, haddr);
            a.int(0x80);
            a.mov_ri(ECX, 20_000);
            a.mov_ri(ESI, 0);
            let top = a.label();
            a.bind(top);
            a.alu_rr(AluOp::Add, ESI, ECX);
            a.alu_rr(AluOp::Xor, ESI, ECX);
            a.dec(ECX);
            a.jcc(ia32::Cond::Ne, top);
            a.mov_store(ia32::inst::Addr::abs(0x50_0000), ESI);
            a.hlt();
            a.bind(handler);
            // Nesting window: spin before touching the count cell.
            if spin > 0 {
                a.mov_ri(EAX, spin);
                let hs = a.label();
                a.bind(hs);
                a.dec(EAX);
                a.jcc(ia32::Cond::Ne, hs);
            }
            a.mov_load(EAX, ia32::inst::Addr::abs(COUNT));
            a.inc(EAX);
            a.mov_store(ia32::inst::Addr::abs(COUNT), EAX);
            a.mov_ri(EAX, sys::SIGRETURN as i32);
            a.int(0x80);
            (a.label_addr(handler), a)
        };
        let (h, _) = build(0);
        let (h2, a) = build(h as i32);
        assert_eq!(h, h2, "layout stable");
        Image::from_asm(&a).with_bss(0x50_0000, 0x1000)
    }

    fn run_signal_loop(image: &Image, plan: Option<SignalPlan>) -> (u64, u64, Process<SimOs>) {
        let mut os = SimOs::new();
        if let Some(plan) = plan {
            os = os.with_signals(plan);
        }
        let mut p = Process::launch(image, os).unwrap();
        match p.run(100_000_000) {
            Outcome::Halted(_) => {}
            other => panic!("signal loop did not halt: {other:?}"),
        }
        let result = p.engine.mem.read(0x50_0000, 4).unwrap();
        let count = p.engine.mem.read(0x50_0800, 4).unwrap();
        (result, count, p)
    }

    #[test]
    fn async_signals_deliver_and_reconcile() {
        let image = signal_loop_image(0);
        let (clean, zero, _) = run_signal_loop(&image, None);
        assert_eq!(zero, 0, "no signals, no handler runs");
        let (result, count, p) = run_signal_loop(&image, Some(SignalPlan::seeded(7, 8, 60_000)));
        assert!(
            p.engine.stats.signals_delivered > 0,
            "the plan never interrupted the loop"
        );
        assert_eq!(
            p.os.sigreturns, p.engine.stats.signals_delivered,
            "every delivered signal must sigreturn (no leaked frames)"
        );
        assert_eq!(count, p.os.sigreturns, "handler ran once per delivery");
        assert_eq!(result, clean, "delivery must be transparent to the loop");
        assert_eq!(p.os.sig_depth, 0, "all frames unwound at halt");
    }

    #[test]
    fn nesting_is_depth_bounded_and_deferrals_drain() {
        let image = signal_loop_image(400);
        let (clean, _, _) = run_signal_loop(&image, None);
        // A burst of near-simultaneous arrivals against a slow handler:
        // the depth cap (2) must defer the excess, and every deferred
        // signal still delivers once the stack unwinds.
        let plan = SignalPlan::seeded(3, 12, 2_000);
        let (result, count, p) = run_signal_loop(&image, Some(plan));
        assert!(p.os.sig_deferrals > 0, "the burst never hit the depth cap");
        assert_eq!(
            p.engine.stats.signals_delivered, 12,
            "all 12 eventually deliver"
        );
        assert_eq!(p.os.sigreturns, 12);
        assert_eq!(count, 12);
        assert_eq!(result, clean, "nested delivery must stay transparent");
    }

    #[test]
    fn seeded_signal_plans_replay() {
        let a = SignalPlan::seeded(9, 16, 100_000);
        let b = SignalPlan::seeded(9, 16, 100_000);
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(a.arrivals.len(), 16);
        assert!(a.arrivals.windows(2).all(|w| w[0] <= w[1]), "ascending");
        assert!(a.arrivals.iter().all(|&c| c < 100_000), "inside the window");
        assert_ne!(
            a.arrivals,
            SignalPlan::seeded(10, 16, 100_000).arrivals,
            "seed changes the schedule"
        );
    }
}
