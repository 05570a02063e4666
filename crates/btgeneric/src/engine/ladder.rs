//! The degradation ladder: a translator failure maps to a precise guest
//! state and one bounded rung — retry, demote or evict and blacklist, or
//! the interpreter — inside depth-tracked recovery scopes.

use super::{BlockKind, Engine, ExitAction};
use crate::btos::BtOs;
use crate::chaos::{Blacklist, FaultKind, FaultPlan};
use crate::layout::{self, region, Predictions};
use crate::trace::{EventData, Rung};
use crate::{cost, policy, state};
use ipf::inst::{Op, Target};

/// A translator-internal failure (organic or injected) that the
/// degradation ladder recovers from instead of panicking.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EngineError {
    /// Translated code branched out of the arena to a non-stub address
    /// (corrupted or mispatched code).
    NonStubBranch {
        /// The bad branch target.
        target: u64,
        /// Arena address of the branching bundle.
        from: u64,
    },
    /// A NaT-flagged value was consumed (failed control/data
    /// speculation that escaped its `chk.s`).
    NatConsumption {
        /// Faulting arena address.
        ip: u64,
        /// Faulting slot.
        slot: u8,
    },
    /// A misalignment fault was taken on a bundle the engine cannot
    /// emulate (clobbered code or a non-memory op).
    MisalignResidue {
        /// Faulting arena address.
        ip: u64,
        /// Faulting slot.
        slot: u8,
    },
}

impl EngineError {
    /// The arena `(bundle address, slot)` the failure was raised at.
    fn site(self) -> (u64, u8) {
        match self {
            EngineError::NonStubBranch { from, .. } => (from, 0),
            EngineError::NatConsumption { ip, slot }
            | EngineError::MisalignResidue { ip, slot } => (ip, slot),
        }
    }
}

/// The ladder's state: who may not be promoted again yet, and how deep
/// the engine is in recovery scopes right now.
#[derive(Debug)]
pub(crate) struct Ladder {
    /// EIPs the ladder demoted or evicted, blocked from re-promotion
    /// with exponential backoff.
    blacklist: Blacklist,
    /// Open recovery scopes; a failure at depth >= 1 is re-entrant.
    depth: u32,
}

impl Ladder {
    /// No strikes, no open scope; `backoff` is the first strike's.
    pub(super) fn new(backoff: u64) -> Ladder {
        Ladder {
            blacklist: Blacklist::new(backoff),
            depth: 0,
        }
    }

    /// Open recovery scopes.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn depth(&self) -> u32 {
        self.depth
    }

    /// The depth stays within [`policy::MAX_RECOVERY_DEPTH`]: the floor
    /// rung interprets instead of opening another rebuild.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn audit(&self) -> Result<(), String> {
        check!(
            "ladder",
            self.depth <= policy::MAX_RECOVERY_DEPTH,
            "{} recovery scopes are open",
            self.depth
        );
        Ok(())
    }
}

impl Engine {
    /// The re-promotion blacklist (inspection for tests/figures).
    pub fn blacklist(&self) -> &Blacklist {
        &self.ladder.blacklist
    }

    /// Mutable blacklist access (tests drive the policy directly).
    pub fn blacklist_mut(&mut self) -> &mut Blacklist {
        &mut self.ladder.blacklist
    }

    /// Runs `f` as one recovery scope. The depth is tracked so a
    /// failure raised *while already recovering* (re-entrant SMC, a
    /// fault during a rebuild, injected translation death inside a
    /// demotion) is visible to the ladder instead of recursing blind;
    /// the scope closes however `f` returns. A scope opened inside the
    /// floor (its one instruction storing onto code) runs at its depth.
    pub(crate) fn recovering<R>(&mut self, f: impl FnOnce(&mut Engine) -> R) -> R {
        let opened = u32::from(self.ladder.depth < policy::MAX_RECOVERY_DEPTH);
        self.ladder.depth += opened;
        self.stats.reentrant_recoveries += u64::from(self.ladder.depth > 1);
        self.stats.recovery_depth_max = self.stats.recovery_depth_max.max(self.ladder.depth as u64);
        let r = f(self);
        self.ladder.depth -= opened;
        r
    }

    /// The degradation ladder entry point, re-entrancy-guarded: at
    /// [`policy::MAX_RECOVERY_DEPTH`] nested failures the engine stops trusting
    /// translated code entirely and takes the interpret-only floor —
    /// one precisely reconstructed instruction through the safety net,
    /// which cannot itself raise an `EngineError`.
    pub(super) fn degrade(&mut self, os: &mut dyn BtOs, err: EngineError) -> ExitAction {
        self.recovering(|e| {
            if e.ladder.depth < policy::MAX_RECOVERY_DEPTH {
                return e.degrade_inner(os, err);
            }
            e.stats.ladder_recoveries += 1;
            let (site, slot) = err.site();
            let cpu = e.reconstruct(site, slot);
            e.note_interp_fallback(cpu.eip);
            state::cpu_to_machine(&cpu, &mut e.machine);
            e.interp_one(os, cpu.eip)
        })
    }

    /// The degradation ladder: maps a translator-internal failure to a
    /// precise guest state and a bounded recovery action (retry ->
    /// demote/evict + blacklist -> retranslate) — never a panic.
    fn degrade_inner(&mut self, os: &mut dyn BtOs, err: EngineError) -> ExitAction {
        self.stats.ladder_recoveries += 1;
        let (site, slot) = err.site();
        let id = self.block_at_addr_any(site);
        // Precise state: a block entry is a state boundary (everything
        // in its canonical home, EIP = the block's EIP); inside a block
        // the recovery maps / state register reconstruct it.
        let entered = id
            .map(|id| &self.blocks[id as usize])
            .filter(|b| b.extents.iter().any(|&(s, _)| s == site));
        let cpu = match entered {
            Some(b) => state::machine_to_cpu(&self.machine, b.eip),
            None => self.reconstruct(site, slot),
        };
        let rung = if let Some(id) = id {
            let is_spec = matches!(err, EngineError::NatConsumption { .. });
            if is_spec && self.blocks[id as usize].kind == BlockKind::Hot {
                // Failed speculation: bounded retries, then rebuild
                // without the speculative assumptions (inline checks).
                let b = &mut self.blocks[id as usize];
                b.spec_failures += 1;
                if b.spec_failures > policy::SPEC_RETRY_CAP {
                    b.inline_fp = true;
                    self.stats.spec_retry_exhaustions += 1;
                    self.demote_block(os, id);
                    Rung::Demote
                } else {
                    Rung::Retry
                }
            } else {
                self.note_failure(os, id)
            }
        } else {
            Rung::Retry
        };
        self.trace_emit(EventData::LadderRung { rung, eip: cpu.eip });
        state::cpu_to_machine(&cpu, &mut self.machine);
        ExitAction::Dispatch(cpu.eip)
    }

    /// Charges one ladder failure to a block. Below the cap the block
    /// is simply retried (a transient fault may clear); past it the
    /// block is demoted (hot) or evicted (cold), its EIP blacklisted,
    /// and the next dispatch rebuilds fresh code from the unchanged
    /// guest bytes. Returns the rung taken (for the trace).
    fn note_failure(&mut self, os: &mut dyn BtOs, id: u32) -> Rung {
        let b = &mut self.blocks[id as usize];
        if b.evicted {
            return Rung::Retry;
        }
        b.failures += 1;
        if b.failures <= policy::BLOCK_FAILURE_CAP {
            return Rung::Retry;
        }
        if b.kind == BlockKind::Hot {
            self.demote_block(os, id);
            Rung::Demote
        } else {
            let eip = self.blocks[id as usize].eip;
            let until = self.ladder.blacklist.strike(eip, self.machine.cycles);
            self.trace_emit(EventData::Blacklisted { eip, until });
            self.evict_block(id);
            Rung::Evict
        }
    }

    /// Demotes a hot (or repeatedly failing) block back to stage-2 cold
    /// code and blacklists its EIP from re-promotion with exponential
    /// backoff.
    pub(super) fn demote_block(&mut self, os: &mut dyn BtOs, id: u32) {
        let eip = self.blocks[id as usize].eip;
        self.stats.demotions += 1;
        let until = self.ladder.blacklist.strike(eip, self.machine.cycles);
        let strikes = self.ladder.blacklist.strikes(eip);
        // A ladder strike means this EIP's published record is suspect
        // (repeated faults under it): pull it until a clean
        // retranslation re-publishes.
        self.shared_notify(|ns| ns.pull(eip) as u64);
        self.trace_emit(EventData::BlockDemoted { id, eip, strikes });
        self.trace_emit(EventData::Blacklisted { eip, until });
        if self.live_block(eip).is_some_and(|b| b.id == id) {
            // Injected translation death *during the demotion rebuild*:
            // a failure inside a recovery action. Descend re-entrantly
            // — evict and blacklist rather than loop demote→rebuild —
            // under the depth guard so the descent is visible in
            // `recovery_depth_max` / `reentrant_recoveries`.
            if self.inject(FaultKind::Translate) {
                self.recovering(|e| {
                    e.stats.ladder_recoveries += 1;
                    e.trace_emit(EventData::LadderRung {
                        rung: Rung::Evict,
                        eip,
                    });
                    e.evict_block(id);
                });
                return;
            }
            let inline_fp = self.blocks[id as usize].inline_fp;
            self.retranslate(os, id, BlockKind::ColdV2, inline_fp);
        } else {
            // An orphaned generation (superseded via SMC): nothing to
            // rebuild, just reclaim it.
            self.evict_block(id);
        }
    }

    /// A failed promotion is the checkpoint for megamorphic-site
    /// demotion: if the block's inline cache has been trained (pred
    /// set) but hit on fewer than half of a meaningful number of
    /// executions, the site is polymorphic and the IC/shadow machinery
    /// is pure per-execution overhead — demote to the plain probe.
    pub(super) fn maybe_demote_megamorphic(&mut self, os: &mut dyn BtOs, id: u32) {
        let b = &self.blocks[id as usize];
        if b.indirect_plain || b.evicted || b.kind == BlockKind::Hot {
            return;
        }
        let site = b.profile.site(&self.mem);
        if !site.is_trained() {
            // Not an inline-cache-probing terminator (or never ran).
            return;
        }
        if site.uses >= policy::MEGAMORPHIC_DEMOTE_USES && !site.is_monomorphic() {
            self.demote_indirect(os, id);
        }
    }

    /// Demotes a block whose per-site acceleration keeps mispredicting
    /// (megamorphic inline cache, or a ret whose shadow pops chronically
    /// miss) to the plain 2-way table probe and retranslates it in
    /// place. One-way: the block keeps its kind and profile slots; only
    /// the accel emission changes. The stale prediction is emptied so
    /// hot selection can never devirtualize through a site that no
    /// longer maintains it.
    pub(super) fn demote_indirect(&mut self, os: &mut dyn BtOs, id: u32) {
        let b = &self.blocks[id as usize];
        if b.indirect_plain || b.evicted || b.kind == BlockKind::Hot {
            return;
        }
        let (eip, kind, inline_fp, profile) = (b.eip, b.kind, b.inline_fp, b.profile);
        self.blocks[id as usize].indirect_plain = true;
        Predictions::empty(&mut self.mem, profile.ic_addr());
        let _ = self.mem.write(profile.ic_hits_addr(), 8, 0);
        self.stats.indirect_demotions += 1;
        self.trace_emit(EventData::IndirectDemote { eip, id });
        if self.live_block(eip).is_some_and(|b| b.id == id) {
            self.retranslate(os, id, kind, inline_fp);
        }
    }

    /// Consults the attached `FaultPlan` at a dispatch boundary and
    /// applies any injected faults. Every injection damages only
    /// *translations*, which the ladder rebuilds from unchanged guest
    /// code — guest-visible semantics are preserved by construction
    /// (the differential oracle in the chaos bench checks this).
    pub(super) fn inject_faults(&mut self, os: &mut dyn BtOs, eip: u32) {
        let Some(mut plan) = self.chaos.take() else {
            return;
        };
        // Misalignment storm: push a victim over its fault tolerance.
        if plan.roll(FaultKind::MisalignStorm) {
            if let Some(victim) = self.pick_victim(&mut plan, true) {
                self.note_injected(FaultKind::MisalignStorm);
                self.stats.ladder_recoveries += 1;
                let n = policy::HOT_MISALIGN_TOLERANCE + 1;
                self.stats.misalign_faults += n as u64;
                self.machine
                    .charge(region::OTHER, cost::MISALIGN_FAULT_CYCLES * n as u64);
                self.blocks[victim as usize].misalign_faults += n;
                if self.blocks[victim as usize].kind == BlockKind::Hot {
                    self.demote_block(os, victim);
                } else {
                    // Retrain: regenerate with detection and avoidance.
                    self.stats.misalign_retrains += 1;
                    self.retranslate(os, victim, BlockKind::ColdV2, false);
                }
            }
        }
        // SMC write landing on the current page: invalidate all of its
        // translations. Guest bytes are unchanged, so the retranslation
        // is identical — only the recovery machinery is exercised.
        if plan.roll(FaultKind::SmcInvalidate) {
            self.note_injected(FaultKind::SmcInvalidate);
            self.stats.smc_events += 1;
            self.machine.charge(region::OTHER, cost::FIX_CYCLES);
            for id in self.registry.on_page(eip >> 12).to_vec() {
                self.orphan_block(id);
            }
        }
        // Bit-flip: clobber a victim's entry bundle. Detected by the
        // checksum (verify-on-dispatch) or, without it, by the
        // non-stub-branch rung of the ladder — never executed as-is
        // beyond the clobbered slot.
        if plan.roll(FaultKind::BitFlip) {
            if let Some(victim) = self.pick_victim(&mut plan, false) {
                self.note_injected(FaultKind::BitFlip);
                let entry = self.blocks[victim as usize].range.0;
                self.machine.arena.patch_slot(
                    entry,
                    0,
                    Op::Br {
                        target: Target::Abs(layout::CORRUPT_SENTINEL),
                    },
                );
                // No note_patched(): this modification is unsanctioned,
                // exactly what the checksum must catch.
            }
        }
        // Asynchronous signal: enqueue one at the current cycle. The
        // boundary poll right after injection (or a mid-trace commit
        // point, if the guest is already executing) delivers it.
        // Guests with no handler registered ignore the roll.
        if plan.roll(FaultKind::AsyncSignal) && os.raise_signal() {
            self.note_injected(FaultKind::AsyncSignal);
        }
        self.chaos = Some(plan);
    }

    /// Picks a live, registered injection victim — preferring hot
    /// blocks when asked (so storms exercise demotion).
    fn pick_victim(&mut self, plan: &mut FaultPlan, prefer_hot: bool) -> Option<u32> {
        let mut pool: Vec<u32> = self.registry.registered().map(|(_, id)| id).collect();
        pool.sort_unstable();
        let is_hot = |id: &u32| self.blocks[*id as usize].kind == BlockKind::Hot;
        if prefer_hot && pool.iter().any(is_hot) {
            pool.retain(is_hot);
        }
        (!pool.is_empty()).then(|| pool[plan.pick(pool.len())])
    }

    /// Rolls the attached fault plan for `kind` at one of the engine's
    /// own injection points, noting a hit.
    pub(super) fn inject(&mut self, kind: FaultKind) -> bool {
        let hit = self.chaos.as_mut().is_some_and(|p| p.roll(kind));
        if hit {
            self.note_injected(kind);
        }
        hit
    }

    /// Counts and traces one injected fault.
    fn note_injected(&mut self, kind: FaultKind) {
        self.stats.faults_injected += 1;
        self.trace_emit(EventData::FaultInjected { kind });
    }

    /// Counts and traces one trip to the degradation ladder's bottom
    /// rung: the instruction at `eip` goes through the interpreter.
    pub(super) fn note_interp_fallback(&mut self, eip: u32) {
        self.stats.interp_fallbacks += 1;
        self.trace_emit(EventData::LadderRung {
            rung: Rung::Interpret,
            eip,
        });
        self.trace_emit(EventData::InterpFallback { eip });
    }
}

#[cfg(test)]
impl Ladder {
    /// Opens one scope more than the floor allows, behind `recovering`'s
    /// back.
    pub(crate) fn open_past_the_floor(&mut self) {
        self.depth = policy::MAX_RECOVERY_DEPTH + 1;
    }
}
