//! Signals and exception delivery, where precise IA-32 state exists:
//! where a fault was raised (paper Figure 3 D), at a dispatch boundary,
//! or at the hot-trace commit point or block entry a signal hunts for.

use super::{Engine, ExitAction, MemBus, Outcome};
use crate::btos::{BtOs, ExceptionOutcome, GuestException};
use crate::{cost, layout::region, policy, state, trace::EventData};
use ia32::cpu::Cpu;
use ia32::mem::MemFaultKind;
use ipf::machine::StopReason;

impl Engine {
    /// Converts the Itanium-side condition into an IA-32 exception and
    /// lets the OS layer decide (paper Figure 3 D).
    pub(super) fn deliver_action(
        &mut self,
        os: &mut dyn BtOs,
        exc: GuestException,
        mut cpu: Cpu,
    ) -> ExitAction {
        self.stats.exceptions += 1;
        match os.exception(exc, &cpu) {
            ExceptionOutcome::DeliverTo(handler) => {
                // SimOs signal ABI: push the faulting EIP like a call,
                // then enter the handler.
                let new_esp = cpu.esp().wrapping_sub(4);
                if !self.write_frame(new_esp, &[cpu.eip]) {
                    return ExitAction::Done(Outcome::Terminated {
                        exc,
                        cpu: Box::new(cpu),
                    });
                }
                cpu.set_esp(new_esp);
                cpu.eip = handler;
                state::cpu_to_machine(&cpu, &mut self.machine);
                ExitAction::Dispatch(handler)
            }
            ExceptionOutcome::Terminate => ExitAction::Done(Outcome::Terminated {
                exc,
                cpu: Box::new(cpu),
            }),
        }
    }

    /// Delivers an asynchronous signal to `handler` from the precise
    /// interrupted state `cpu`. The frame is three words — `[esp]` =
    /// interrupted EIP, `[esp+4]` = EFLAGS, `[esp+8]` = EAX — popped by
    /// the guest's SIGRETURN syscall; the synchronous-trap frame (one
    /// word, popped by `ret`) is unchanged. EFLAGS/EAX ride in the frame
    /// because an async handler interrupts *between* instructions of
    /// arbitrary code, so the handler prologue cannot know what is live.
    pub(super) fn deliver_signal(&mut self, handler: u32, mut cpu: Cpu) -> ExitAction {
        self.machine
            .charge(region::OTHER, cost::SIGNAL_DELIVER_CYCLES);
        let esp = cpu.esp().wrapping_sub(12);
        if !self.write_frame(esp, &[cpu.eip, cpu.eflags, cpu.gpr[0]]) {
            // Unwritable stack: the guest cannot take the signal.
            return ExitAction::Done(Outcome::Terminated {
                exc: GuestException::PageFault {
                    addr: esp,
                    write: true,
                },
                cpu: Box::new(cpu),
            });
        }
        self.stats.signals_delivered += 1;
        self.trace_emit(EventData::SignalDelivered {
            eip: cpu.eip,
            handler,
        });
        cpu.set_esp(esp);
        cpu.eip = handler;
        state::cpu_to_machine(&cpu, &mut self.machine);
        ExitAction::Dispatch(handler)
    }

    /// Pushes `words` (lowest address first) at `at`: a frame the engine
    /// hands the guest. A stack on a page translated code came from is
    /// the guest's to write, so a store the code-page protection stops
    /// is run again under [`Engine::store_on_code_page`], like a guest
    /// store there (once per page, for a frame straddling two). Returns
    /// whether the frame landed.
    fn write_frame(&mut self, at: u32, words: &[u32]) -> bool {
        let pushed = (0..)
            .zip(words)
            .try_for_each(|(i, &w)| self.mem.write(at as u64 + 4 * i, 4, w as u64));
        match pushed {
            Err(f) if f.kind == MemFaultKind::SmcWrite => {
                self.store_on_code_page(f.addr, |e| e.write_frame(at, words))
            }
            pushed => pushed.is_ok(),
        }
    }

    /// The signal quantum expired mid-trace with a signal due. Single-
    /// step the machine (bounded by [`policy::SIGNAL_STEP_CAP`]) until it reaches
    /// a site where precise IA-32 state exists — a hot-trace commit
    /// point, a chained block entry, or any dispatcher exit — and
    /// deliver there. Returns `None` if the cap ran out first (the
    /// caller resumes and hunts again next quantum) and `Some(action)`
    /// once the signal was delivered or execution left the trace.
    pub(super) fn hunt_commit_point(
        &mut self,
        os: &mut dyn BtOs,
        remaining: &mut u64,
    ) -> Option<ExitAction> {
        for _ in 0..policy::SIGNAL_STEP_CAP {
            if let Some(cpu) = self.commit_point_state() {
                let handler = os.poll_signal(self.machine.cycles)?;
                return Some(self.deliver_signal(handler, cpu));
            }
            if *remaining == 0 {
                return Some(ExitAction::Done(Outcome::InstLimit));
            }
            let before = self.machine.inst_count;
            let stop = {
                let mut bus = MemBus(&mut self.mem);
                self.machine.run(&mut bus, 1)
            };
            *remaining = remaining.saturating_sub(self.machine.inst_count - before);
            match stop {
                StopReason::InstLimit => {}
                StopReason::ExternalBranch { target, from } => {
                    match self.handle_exit(os, target, from) {
                        ExitAction::Continue(addr) => {
                            self.machine.set_ip(addr, 0);
                            if let Some(cpu) = self.entry_boundary_state(addr) {
                                let handler = os.poll_signal(self.machine.cycles)?;
                                return Some(self.deliver_signal(handler, cpu));
                            }
                        }
                        // A dispatch lands back at the loop top, where
                        // the boundary poll delivers the signal.
                        act @ (ExitAction::Dispatch(_) | ExitAction::Done(_)) => return Some(act),
                    }
                }
                StopReason::Fault { fault, ip, slot } => {
                    match self.handle_fault(os, fault, ip, slot) {
                        ExitAction::Continue(_) => {}
                        act @ (ExitAction::Dispatch(_) | ExitAction::Done(_)) => return Some(act),
                    }
                }
            }
        }
        None
    }

    /// Precise IA-32 state if the machine currently sits exactly on a
    /// hot-trace commit point — the (bundle, slot) sites the recovery
    /// maps already prove reconstructible for precise faults.
    fn commit_point_state(&self) -> Option<Cpu> {
        let id = self.block_at_addr(self.machine.ip)?;
        let hot = self.blocks[id as usize].hot.as_ref()?;
        hot.reconstruct(&self.machine, self.machine.ip, self.machine.slot)
    }

    /// Precise IA-32 state if `addr` is the entry of a live block: a
    /// block entry is a state boundary (everything in its canonical
    /// home, EIP = the block's EIP) — the same argument the degradation
    /// ladder relies on.
    fn entry_boundary_state(&self, addr: u64) -> Option<Cpu> {
        let id = self.block_at_addr(addr)?;
        let b = &self.blocks[id as usize];
        if b.entry == addr && !b.evicted {
            Some(state::machine_to_cpu(&self.machine, b.eip))
        } else {
            None
        }
    }
}
