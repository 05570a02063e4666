//! Fix-ups: a misaligned access emulated in parts (the paper's §5
//! OS-handled stage), and a block entered under FP speculation that
//! does not hold, repaired in place.

use super::{BlockKind, Engine, EngineError, ExitAction};
use crate::btos::{BtOs, GuestException};
use crate::layout::{region, StubKind};
use crate::{cost, policy, state};
use ia32::mem::{GuestMem, MemFaultKind};
use ipf::inst::{FFmt, Op};
use ipf::machine::{BusError, MachFault};

impl Engine {
    pub(crate) fn handle_fault(
        &mut self,
        os: &mut dyn BtOs,
        fault: MachFault,
        ip: u64,
        slot: u8,
    ) -> ExitAction {
        match fault {
            MachFault::Misalign { .. } => {
                self.stats.misalign_faults += 1;
                self.machine
                    .charge(region::OTHER, cost::MISALIGN_FAULT_CYCLES);
                if let Some(id) = self.block_at_addr(ip) {
                    let b = &mut self.blocks[id as usize];
                    b.misalign_faults += 1;
                    if b.kind == BlockKind::Hot
                        && b.misalign_faults > policy::HOT_MISALIGN_TOLERANCE
                    {
                        // Discard the hot block; regenerate everything
                        // with detection and avoidance (paper §5 stage 3
                        // final paragraph) and blacklist re-promotion
                        // until the backoff expires.
                        let cpu = self.reconstruct(ip, slot);
                        self.demote_block(os, id);
                        state::cpu_to_machine(&cpu, &mut self.machine);
                        return ExitAction::Dispatch(cpu.eip);
                    }
                }
                match self.emulate_misaligned(ip, slot) {
                    Ok(()) => {
                        self.machine.skip_slot();
                        ExitAction::Continue(self.machine.ip)
                    }
                    Err(MisEmu::Guest(exc)) => {
                        let cpu = self.reconstruct(ip, slot);
                        self.deliver_action(os, exc, cpu)
                    }
                    // A misaligned self-modifying store: the part-writes
                    // already landed are idempotent (the interpreter
                    // re-executes the whole store from unchanged
                    // register state), so the ordinary SMC recovery
                    // applies as if the store had not run at all.
                    Err(MisEmu::Smc(addr)) => self.handle_smc_store(os, ip, slot, addr),
                    Err(MisEmu::Residue) => {
                        self.degrade(os, EngineError::MisalignResidue { ip, slot })
                    }
                }
            }
            MachFault::Bus { err, addr, .. } => match err {
                BusError::Smc => self.handle_smc_store(os, ip, slot, addr),
                // The oracle re-raises the fault from the precise state:
                // it decides the address and whether it is a write, for
                // a load, a read-modify-write and a split-store probe
                // (which reads before writing) alike.
                _ => {
                    let cpu = self.reconstruct(ip, slot);
                    state::cpu_to_machine(&cpu, &mut self.machine);
                    self.interp_one(os, cpu.eip)
                }
            },
            MachFault::NatConsumption => {
                // Failed speculation escaped its chk.s (or the code was
                // corrupted): recover through the ladder.
                self.degrade(os, EngineError::NatConsumption { ip, slot })
            }
        }
    }

    /// Emulates a misaligned access in parts (the "OS handler" path).
    fn emulate_misaligned(&mut self, ip: u64, slot: u8) -> Result<(), MisEmu> {
        let Some(bundle) = self.machine.arena.bundle_at(ip) else {
            return Err(MisEmu::Residue);
        };
        let op = bundle.slots[slot as usize].op;
        let read_parts = |mem: &GuestMem, addr: u64, size: u32| -> Result<u64, MisEmu> {
            let mut v = 0u64;
            for i in 0..size as u64 {
                let b = mem.read(addr + i, 1).map_err(|f| {
                    MisEmu::Guest(GuestException::PageFault {
                        addr: f.addr as u32,
                        write: false,
                    })
                })?;
                v |= b << (i * 8);
            }
            Ok(v)
        };
        let write_parts = |mem: &mut GuestMem, addr: u64, v: u64, size: u64| {
            (0..size).try_for_each(|i| {
                mem.write(addr + i, 1, (v >> (i * 8)) & 0xFF)
                    .map_err(|f| match f.kind {
                        MemFaultKind::SmcWrite => MisEmu::Smc(f.addr),
                        _ => MisEmu::Guest(GuestException::PageFault {
                            addr: f.addr as u32,
                            write: true,
                        }),
                    })
            })
        };
        match op {
            Op::Ld { sz, d, addr, .. } => {
                let a = self.machine.gr[addr.phys()];
                let v = read_parts(&self.mem, a, sz as u32)?;
                if d.phys() != 0 {
                    self.machine.gr[d.phys()] = v;
                    self.machine.gr_nat[d.phys()] = false;
                }
            }
            Op::St { sz, addr, val } => {
                let a = self.machine.gr[addr.phys()];
                let v = self.machine.gr[val.phys()];
                write_parts(&mut self.mem, a, v, sz as u64)?;
            }
            Op::Ldf { fmt, f, addr, .. } => {
                let a = self.machine.gr[addr.phys()];
                let raw = read_parts(&self.mem, a, fmt.bytes())?;
                let bits = match fmt {
                    FFmt::S => (f32::from_bits(raw as u32) as f64).to_bits(),
                    _ => raw,
                };
                self.machine.fr[f.phys()] = bits;
            }
            Op::Stf { fmt, f, addr } => {
                let a = self.machine.gr[addr.phys()];
                let raw = self.machine.fr[f.phys()];
                let (v, n) = match fmt {
                    FFmt::S => ((f64::from_bits(raw) as f32).to_bits() as u64, 4),
                    _ => (raw, 8),
                };
                write_parts(&mut self.mem, a, v, n)?;
            }
            // A misalignment fault on a non-memory op means the code at
            // `ip` is not what the translator emitted: residue for the
            // degradation ladder.
            _ => return Err(MisEmu::Residue),
        }
        Ok(())
    }

    /// A block was entered under FP speculation that does not hold
    /// (`kind` is the stub it exited to): rearrange the machine state to
    /// what block `id` was translated for and re-enter it, or, for
    /// tags, rebuild it as the "special block" with inline checks.
    pub(super) fn fp_fix(&mut self, os: &mut dyn BtOs, kind: StubKind, id: u32) -> ExitAction {
        self.machine.charge(region::OTHER, cost::FIX_CYCLES);
        match kind {
            StubKind::TosFix => {
                self.stats.tos_fixes += 1;
                self.fix_tos(id);
            }
            StubKind::MmxFix => {
                self.stats.mmx_fixes += 1;
                self.fix_mmx_mode(self.blocks[id as usize].entry_mmx);
            }
            StubKind::XmmFix => {
                self.stats.xmm_fixes += 1;
                self.fix_xmm_formats(id);
            }
            _ => {
                self.stats.tag_fixes += 1;
                let kind = self.blocks[id as usize].kind;
                self.retranslate(os, id, kind, true);
                return ExitAction::Dispatch(self.blocks[id as usize].eip);
            }
        }
        ExitAction::Continue(self.blocks[id as usize].entry)
    }

    fn fix_tos(&mut self, id: u32) {
        let b = &self.blocks[id as usize];
        let want = b.spec.tos;
        let cur = (self.machine.gr[state::GR_FPTOP.0 as usize] & 7) as u8;
        if want == cur {
            return;
        }
        // Rotate values so the block's static ST(k) -> FR mapping holds.
        let tags = self.machine.gr[state::GR_FPTAG.0 as usize] as u8;
        let mut new_fr = [0u64; 8];
        let mut new_tags = 0u8;
        for p in 0..8u8 {
            // Value at logical position k = (p - cur) mod 8 moves to
            // physical (want + k) mod 8.
            let k = p.wrapping_sub(cur) & 7;
            let np = (want + k) & 7;
            new_fr[np as usize] = self.machine.fr[(state::FR_X87 + p as u16) as usize];
            if tags & (1 << p) != 0 {
                new_tags |= 1 << np;
            }
        }
        for p in 0..8u8 {
            self.machine.fr[(state::FR_X87 + p as u16) as usize] = new_fr[p as usize];
        }
        self.machine.gr[state::GR_FPTAG.0 as usize] = new_tags as u64;
        self.machine.gr[state::GR_FPTOP.0 as usize] = want as u64;
    }

    fn fix_mmx_mode(&mut self, want_mmx: bool) {
        let cur = self.machine.gr[state::GR_FPMODE.0 as usize] & 1 != 0;
        if cur == want_mmx {
            return;
        }
        if want_mmx {
            for i in 0..8u16 {
                self.machine.gr[(state::GR_MMX + i) as usize] =
                    self.machine.fr[(state::FR_X87 + i) as usize];
            }
            self.machine.gr[state::GR_FPTOP.0 as usize] = 0;
            self.machine.gr[state::GR_FPMODE.0 as usize] = 1;
        } else {
            for i in 0..8u16 {
                // MMX values are invisible to FP reads (NaN view).
                self.machine.fr[(state::FR_X87 + i) as usize] = f64::NAN.to_bits();
            }
            self.machine.gr[state::GR_FPMODE.0 as usize] = 0;
        }
    }

    fn fix_xmm_formats(&mut self, id: u32) {
        let want = self.blocks[id as usize].spec.xmm_fmt;
        let cur = self.machine.gr[state::GR_XMMFMT.0 as usize] as u8;
        for n in 0..8u8 {
            let w = want & (1 << n) != 0;
            let c = cur & (1 << n) != 0;
            if w == c {
                continue;
            }
            self.stats.xmm_conversions += 1;
            if w {
                // packed -> scalar
                let lo = self.machine.fr[state::xmm_lo_fr(n).0 as usize];
                let lane0 = f32::from_bits(lo as u32) as f64;
                self.machine.fr[state::xmm_scalar_fr(n).0 as usize] = lane0.to_bits();
            } else {
                // scalar -> packed
                let sc = f64::from_bits(self.machine.fr[state::xmm_scalar_fr(n).0 as usize]);
                let lane0 = (sc as f32).to_bits() as u64;
                let lo = self.machine.fr[state::xmm_lo_fr(n).0 as usize];
                self.machine.fr[state::xmm_lo_fr(n).0 as usize] = (lo & !0xFFFF_FFFF) | lane0;
            }
        }
        self.machine.gr[state::GR_XMMFMT.0 as usize] = want as u64;
    }
}

/// Outcome of part-wise misaligned-access emulation.
enum MisEmu {
    /// A real guest exception surfaced (unmapped page, …).
    Guest(GuestException),
    /// A part-write hit a write-protected translated-code page: a
    /// misaligned self-modifying store. Must take the SMC recovery
    /// path, not a guest fault (the protection is ours, not the
    /// guest's). Carries the faulting address.
    Smc(u64),
    /// The faulting bundle is not an emulable memory op — the code is
    /// not what the translator emitted; residue for the ladder.
    Residue,
}
