//! Dispatch and chaining: a guest EIP resolves to its translation (or
//! is translated); exits are chained, forwarded and un-linked; the cache
//! makes room by eviction. Owns the per-block profile slots.

use super::{BlockInfo, BlockKind, Engine, ExitAction, XlateOrigin};
use crate::btos::{BtOs, GuestException};
use crate::layout::{self, region, Predictions, Profile, Stale, StubKind};
use crate::state::{self, GR_STATE};
use crate::{chaos::FaultKind, cost, trace::EventData};
use ia32::mem::{GuestMem, Prot};
use ipf::inst::{Op, Target};
use std::collections::HashMap;

/// Granularity of on-demand profile-region mapping (page-aligned).
const PROFILE_CHUNK: u64 = 0x1_0000;

/// The dispatch seam's state: the profile records handed out so far
/// and the block the engine must not evict while it handles an exit.
#[derive(Debug)]
pub(crate) struct Dispatch {
    /// Next free profile record. Every record below it is handed out
    /// (the overflow record first), so eviction, SMC invalidation and
    /// flushing walk `Profile::handed_out(cursor)` to purge stale
    /// predictions, and `collect_indirect_stats` sums its hit counters.
    cursor: Profile,
    /// End of the currently mapped prefix of the profile region (grown
    /// on demand through `BtOs::alloc_pages`).
    mapped: u64,
    /// Profile record per guest EIP, persistent across retranslation
    /// and eviction so re-heated blocks promote quickly.
    profile_of: HashMap<u32, Profile>,
    /// Block whose code the engine may still patch or resume in the
    /// current exit handling — never an eviction victim.
    pinned: Option<u32>,
}

impl Dispatch {
    /// Maps the prediction structures plus the overflow profile record
    /// into `mem` and empties them, the overflow inline cache included.
    /// Per-block profile records are allocated on demand through
    /// `BtOs::alloc_pages`, so the OS can refuse them.
    pub(super) fn new(mem: &mut GuestMem) -> Dispatch {
        let head = (Profile::OVERFLOW.next().base() - layout::PROFILE_BASE)
            .next_multiple_of(PROFILE_CHUNK);
        mem.map(layout::PROFILE_BASE, head, Prot::rw());
        let overflow_ic = std::iter::once(Profile::OVERFLOW.ic_addr());
        Predictions::purge(mem, Stale::All, overflow_ic);
        Dispatch {
            cursor: Profile::OVERFLOW.next(),
            mapped: layout::PROFILE_BASE + head,
            profile_of: HashMap::new(),
            pinned: None,
        }
    }

    /// The block pinned while an exit is handled.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn pinned(&self) -> Option<u32> {
        self.pinned
    }

    /// Every EIP's profile record is one handed out below the cursor,
    /// which lies in the mapped prefix, and no two EIPs share a record
    /// but the overflow one.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn audit(&self) -> Result<(), String> {
        check!(
            "profiles",
            self.cursor.base() <= self.mapped,
            "the cursor {:x?} lies past the mapped end {:#x}",
            self.cursor,
            self.mapped
        );
        let stray = self
            .profile_of
            .values()
            .find(|p| !p.is_handed_out(self.cursor));
        check!(
            "profiles",
            stray.is_none(),
            "{stray:x?} is no profile record handed out"
        );
        let mut seen = std::collections::HashSet::new();
        let shared = self
            .profile_of
            .values()
            .find(|&&p| p != Profile::OVERFLOW && !seen.insert(p));
        check!(
            "profiles",
            shared.is_none(),
            "two EIPs share the profile slot {shared:x?}"
        );
        Ok(())
    }
}

impl Engine {
    /// One dispatch boundary at `eip`, where the EIP is precise and all
    /// guest state is in its canonical home: injected faults are
    /// applied and a due signal is delivered here, then `eip` resolves
    /// to the entry to run (`Continue`) — a registry hit on the fast
    /// path, else through translation.
    pub(super) fn dispatch_boundary(&mut self, os: &mut dyn BtOs, eip: u32) -> ExitAction {
        self.trace_profile(|t| t.profile_dispatch(eip));
        // Dispatch latency: cycles from this boundary to the resolved
        // translated entry, translation work included.
        let boundary_cycles = self.machine.cycles;
        if self.chaos.is_some() {
            self.inject_faults(os, eip);
        }
        if let Some(handler) = os.poll_signal(self.machine.cycles) {
            let cpu = state::machine_to_cpu(&self.machine, eip);
            return self.deliver_signal(handler, cpu);
        }
        // Chained-dispatch fast path: a registry hit needs no
        // translation work and only minimal state traffic, so it is
        // charged a reduced round-trip cost. Under verify-on-dispatch a
        // checksum mismatch evicts the target and falls back to the
        // slow path (retranslation).
        let fast = match self.entry_of_existing(eip) {
            Some(e) if !self.cfg.verify_on_dispatch || self.verify_dispatch(eip) => Some(e),
            _ => None,
        };
        let entry = if let Some(e) = fast {
            self.machine
                .charge(region::OTHER, cost::DISPATCH_FAST_CYCLES);
            self.stats.dispatch_fast_hits += 1;
            e
        } else {
            self.machine.charge(region::OTHER, cost::DISPATCH_CYCLES);
            match self.entry_of(os, eip) {
                Ok(e) => e,
                Err(exc) => return self.deliver_action(os, exc, self.state_cpu()),
            }
        };
        self.stats
            .dispatch_hist
            .record(self.machine.cycles - boundary_cycles);
        ExitAction::Continue(entry)
    }

    /// Entry address for `eip` if already translated (no translation).
    pub fn entry_of_existing(&self, eip: u32) -> Option<u64> {
        self.live_block(eip).map(|b| b.entry)
    }

    /// The live block translated from `eip`, if any.
    pub(crate) fn live_block(&self, eip: u32) -> Option<&BlockInfo> {
        let id = self.registry.live(eip)?;
        Some(&self.blocks[id as usize])
    }

    /// Returns the entry address for `eip`, translating a cold block if
    /// necessary.
    pub fn entry_of(&mut self, os: &mut dyn BtOs, eip: u32) -> Result<u64, GuestException> {
        if let Some(entry) = self.entry_of_existing(eip) {
            return Ok(entry);
        }
        // A block the guest keeps rewriting is interpret-only until its
        // backoff expires: retranslating it is pure churn (the thrash
        // governor's bound on retranslation storms). The rest of its
        // page stays translated.
        if self.smc.interpret_only(eip, self.machine.cycles) {
            self.stats.smc_interp_blocks += 1;
            return Ok(self.interp_stub_for(eip));
        }
        // Injected transient translation failure (the guest code page
        // faulted under the translator's reader): single-step this
        // entry through the safety net; the next dispatch retries.
        if self.inject(FaultKind::Translate) {
            self.stats.ladder_recoveries += 1;
            self.note_interp_fallback(eip);
            return Ok(self.interp_stub_for(eip));
        }
        if self.cfg.max_cache_bundles > 0
            && self.machine.arena.live_len() >= self.cfg.max_cache_bundles
        {
            if self.cfg.enable_eviction {
                self.make_room();
            } else {
                self.flush_cache();
            }
        }
        // A local translation miss is the one place the shared
        // multi-tenant namespace is consulted — the read-only dispatch
        // fast path above never touches a shard lock.
        if let Some(entry) = self.shared_consult(os, eip) {
            return Ok(entry);
        }
        let fresh = HashMap::new();
        self.translate(
            os,
            eip,
            BlockKind::ColdV1,
            false,
            fresh,
            XlateOrigin::Demand,
        )
    }

    /// Inserts `eip -> entry` into the lookup table
    /// ([`Predictions::insert`]). `lookup_collisions` counts inserts
    /// into a set already holding a live foreign key;
    /// `lookup_way_conflicts` counts the displacements of a live entry.
    pub(crate) fn lookup_insert(&mut self, eip: u32, entry: u64) {
        let (collision, conflict) = Predictions::insert(&mut self.mem, eip, entry);
        self.stats.lookup_collisions += collision as u64;
        self.stats.lookup_way_conflicts += conflict as u64;
    }

    /// Chains the exit bundle `site` — still branching to the
    /// Untranslated stub — straight to the entry of block `target`, and
    /// records the edge so eviction of the target can un-link it.
    pub(super) fn chain(&mut self, site: u64, target: u32) {
        let entry = self.blocks[target as usize].entry;
        if self.patch_branch(site, |t| t == StubKind::Untranslated.addr(), entry) > 0 {
            self.registry.link(target, site);
        }
    }

    /// Re-points every branch in the bundle at `site` whose target
    /// `hits` at `to`; how many there were.
    pub(super) fn patch_branch(&mut self, site: u64, hits: impl Fn(u64) -> bool, to: u64) -> u64 {
        let patches: Vec<usize> = self.machine.arena.bundle_at(site).map_or(Vec::new(), |b| {
            let hit =
                |i: &usize| matches!(b.slots[*i].op.target(), Some(Target::Abs(t)) if hits(t));
            (0..b.slots.len()).filter(hit).collect()
        });
        for &i in &patches {
            self.machine.arena.patch_slot(
                site,
                i,
                Op::Br {
                    target: Target::Abs(to),
                },
            );
        }
        self.note_patched(site);
        patches.len() as u64
    }

    /// Finds the bundle holding a trampoline's branch to the
    /// Untranslated stub: trampoline labels are bundle-aligned, so the
    /// first stub-targeting branch at or after `tramp` (bounded by the
    /// block's end) belongs to that trampoline.
    pub(super) fn exit_branch_bundle(&self, tramp: u64, end: u64) -> Option<u64> {
        let stub = Some(Target::Abs(StubKind::Untranslated.addr()));
        (tramp..end)
            .step_by(ipf::Bundle::SIZE as usize)
            .find(|&addr| {
                let bundle = self.machine.arena.bundle_at(addr);
                bundle.is_some_and(|b| b.slots.iter().any(|s| s.op.target() == stub))
            })
    }

    /// Scans the code in `[start, end)` for branches chained straight
    /// to the entry of an unevicted block other than `skip`: `(target
    /// block, bundle address)` each. Cold translation records its
    /// trampolines one by one as it patches them; hot installation
    /// chains exits at emission time and records what this finds. An
    /// unrecorded chain is a use-after-free in waiting: evicting the
    /// target releases — and eventually reuses — the arena space the
    /// branch still lands in.
    pub(super) fn chained_branches(&self, start: u64, end: u64, skip: u32) -> Vec<(u32, u64)> {
        let mut found = Vec::new();
        for addr in (start..end).step_by(ipf::Bundle::SIZE as usize) {
            if let Some(b) = self.machine.arena.bundle_at(addr) {
                for s in &b.slots {
                    if let Some(Target::Abs(t)) = s.op.target() {
                        // A block's entry lies in its own latest extent,
                        // so the extent's owner is the only candidate.
                        let tid = self
                            .registry
                            .owner_of(t)
                            .filter(|&tid| tid != skip && self.blocks[tid as usize].entry == t);
                        found.extend(tid.map(|tid| (tid, addr)));
                    }
                }
            }
        }
        found
    }

    /// Patches the entry bundle of an old block version to branch to the
    /// new version ("block forwarding").
    pub(super) fn forward(&mut self, old_entry: u64, new_entry: u64) {
        // A block that had no code yet "enters" at a stub.
        if self.machine.arena.index_of(old_entry).is_none() {
            return;
        }
        let mut cb = ipf::asm::CodeBuilder::new();
        cb.push(Op::Br {
            target: Target::Abs(new_entry),
        });
        let (bundles, _) = cb.assemble(old_entry);
        let b = bundles.into_iter().next().expect("one bundle");
        // Replace all three slots.
        for (slot, inst) in b.slots.iter().enumerate() {
            self.machine.arena.patch_slot(old_entry, slot, inst.op);
        }
        self.note_patched(old_entry);
    }

    /// Re-records the owning block's checksum after a *legitimate* code
    /// patch (chaining, unlinking, forwarding), so verify-on-dispatch
    /// flags only unsanctioned modifications.
    fn note_patched(&mut self, addr: u64) {
        if !self.cfg.verify_on_dispatch {
            return;
        }
        if let Some(id) = self.block_at_addr(addr) {
            let (s, e) = self.blocks[id as usize].range;
            self.blocks[id as usize].checksum = self.machine.arena.checksum_range(s, e);
        }
    }

    /// Verify-on-dispatch: checks the target block's checksum before
    /// entering it. On a mismatch the corrupted block is evicted (the
    /// caller falls back to the slow path, which retranslates) and
    /// false is returned.
    pub(super) fn verify_dispatch(&mut self, eip: u32) -> bool {
        let Some(id) = self.registry.live(eip) else {
            return true;
        };
        self.machine
            .charge(region::OTHER, cost::INTEGRITY_CHECK_CYCLES);
        let b = &self.blocks[id as usize];
        if self.machine.arena.checksum_range(b.range.0, b.range.1) == b.checksum {
            return true;
        }
        self.stats.integrity_evictions += 1;
        self.stats.ladder_recoveries += 1;
        self.evict_block(id);
        false
    }

    /// Maps an arena address back to the block whose *latest*
    /// generation contains it (an address in a superseded generation
    /// answers `None`).
    pub(super) fn block_at_addr(&self, addr: u64) -> Option<u32> {
        let id = self.registry.owner_of(addr).filter(|&id| {
            let (s, e) = self.blocks[id as usize].range;
            addr >= s && addr < e
        });
        debug_assert_eq!(id, self.scan_for_owner(addr, false));
        id
    }

    /// Maps an arena address back to the owning block, searching every
    /// live generation (the degradation ladder must attribute failures
    /// in superseded extents too — live extents are disjoint).
    pub(super) fn block_at_addr_any(&self, addr: u64) -> Option<u32> {
        let id = self.registry.owner_of(addr);
        debug_assert_eq!(id, self.scan_for_owner(addr, true));
        id
    }

    /// The linear scan over every block ever translated that the extent
    /// index replaces, kept as the reference `debug_assert!` (and the
    /// index tests) compare each answer with.
    pub(super) fn scan_for_owner(&self, addr: u64, any_generation: bool) -> Option<u32> {
        let within = |&(s, e): &(u64, u64)| addr >= s && addr < e;
        self.blocks
            .iter()
            .find(|b| {
                if any_generation {
                    !b.evicted && b.extents.iter().any(within)
                } else {
                    within(&b.range)
                }
            })
            .map(|b| b.id)
    }

    pub(super) fn handle_exit(&mut self, os: &mut dyn BtOs, target: u64, from: u64) -> ExitAction {
        // Pin the block owning `from`: its bundles may be patched or
        // resumed below and must survive any eviction that entry_of
        // triggers while handling this exit.
        self.dispatch.pinned = self.block_at_addr(from);
        let act = self.handle_exit_stub(os, target, from);
        self.dispatch.pinned = None;
        act
    }

    /// Frees cache space by evicting cold, low-use blocks until live
    /// usage drops to ¾ of capacity (incremental garbage collection).
    /// Registered heat candidates and the pinned block are never
    /// victims; hot blocks are spared by the first pass and evicted
    /// only as a last resort (their use counters persist, so they
    /// re-heat quickly). If even that leaves the cache full, falls back
    /// to a full flush (the emergency path in `Stats::cache_flushes`).
    fn make_room(&mut self) {
        let cap = self.cfg.max_cache_bundles;
        let target = cap - cap / 4;
        self.evict_pass(target, false);
        if self.machine.arena.live_len() > target {
            self.evict_pass(target, true);
        }
        if self.machine.arena.live_len() >= cap {
            self.flush_cache();
        }
    }

    /// One eviction sweep toward `target` live bundles, over cold
    /// blocks only or (`include_hot`) hot blocks too.
    fn evict_pass(&mut self, target: usize, include_hot: bool) {
        // Victims coldest-first: blocks orphaned by SMC invalidation (no
        // longer in the registry) count as use 0; live blocks sort by
        // their profile use counter. Every unevicted block has a live
        // extent, so the extent index enumerates exactly those (once
        // per live generation — deduplicated after the sort).
        let mut victims: Vec<(u64, u32)> = self
            .registry
            .unevicted()
            .map(|id| &self.blocks[id as usize])
            .filter(|b| {
                (include_hot == (b.kind == BlockKind::Hot))
                    && Some(b.id) != self.dispatch.pinned
                    && !self.registry.candidates().contains(&b.id)
            })
            .map(|b| {
                let uses = if self.registry.is_registered(b) {
                    self.mem.read(b.profile.uses_addr(), 8).unwrap_or(0)
                } else {
                    0
                };
                (uses, b.id)
            })
            .collect();
        victims.sort_unstable();
        victims.dedup();
        for (_, id) in victims {
            if self.machine.arena.live_len() <= target {
                break;
            }
            self.evict_block(id);
        }
    }

    /// Surgically removes one block from the translation cache:
    /// re-points inbound chained branches at the Untranslated stub,
    /// purges its indirect-branch lookup entry, scrubs bookkeeping that
    /// references its code, and returns every generation's extent to
    /// the arena free list.
    pub(crate) fn evict_block(&mut self, id: u32) {
        let b = &mut self.blocks[id as usize];
        let eip = b.eip;
        let crate::registry::Retired { extents, inbound } = self.registry.retire(b);
        let in_extents = |addr: u64| extents.iter().any(|&(s, e)| addr >= s && addr < e);
        // Un-link inbound edges. The chaining bundle's trampoline movl
        // (payload = target EIP) is still upstream of the branch, so
        // re-pointing the branch at the stub restores the original
        // dispatch semantics exactly.
        let stub = StubKind::Untranslated.addr();
        for from in inbound {
            self.stats.chain_unlinks += self.patch_branch(from, in_extents, stub);
        }
        // The victim's code must be unreachable through every
        // prediction. (Forwarded old generations are kept alive until
        // eviction precisely so this is the only purge point.)
        let ic_slots = self.ic_slots();
        let stale = Stale::Code(eip, &in_extents);
        self.stats.lookup_purges += Predictions::purge(&mut self.mem, stale, ic_slots);
        let mut freed = 0;
        for &(s, e) in &extents {
            freed += (e - s) / ipf::Bundle::SIZE;
            self.machine.arena.release(s, e);
        }
        // The ladder may evict the very block whose exit it is handling.
        if self.dispatch.pinned == Some(id) {
            self.dispatch.pinned = None;
        }
        self.stats.evictions += 1;
        self.stats.evicted_bundles += freed;
        // Tell the shared namespace: peers must never import a record
        // whose publisher has reclaimed the backing extents.
        self.shared_notify(|ns| ns.pull(eip) as u64);
        self.trace_emit(EventData::BlockEvicted {
            id,
            eip,
            bundles: freed,
        });
        self.audited();
    }

    /// Flushes the entire translation cache (the paper's garbage
    /// collection: "cold blocks may be recycled due to
    /// garbage-collection"): every block is discarded, the lookup table
    /// cleared, and code pages un-protected; translation restarts on
    /// demand. Profile counters persist, so re-heated blocks promote
    /// quickly.
    pub fn flush_cache(&mut self) {
        self.stats.cache_flushes += 1;
        self.machine.arena.truncate(layout::TC_BASE);
        self.blocks.clear();
        self.dispatch.pinned = None;
        for page in self.registry.clear() {
            self.mem.set_code_protect((page as u64) << 12, false);
        }
        // All translated code is gone: no prediction may survive (their
        // targets are arena addresses). Hit counters persist like use
        // counters.
        let ic_slots = self.ic_slots();
        Predictions::purge(&mut self.mem, Stale::All, ic_slots);
        // A flush drops every local translation at once: pull every
        // record, and this tenant's re-publishes re-seed the namespace.
        self.shared_notify(|ns| ns.pull_all());
        self.audited();
    }

    /// Returns (emitting on first use) the interpreter stub for `eip`.
    /// Interpret-only pages, and blocks that cannot be translated,
    /// re-dispatch the same EIPs over and over, so stubs are cached per
    /// EIP (cleared on cache flush). Nothing is registered for the EIP:
    /// a later successful translation still wins, because dispatch asks
    /// `entry_of_existing` first.
    pub(crate) fn interp_stub_for(&mut self, eip: u32) -> u64 {
        if let Some(addr) = self.registry.interp_stub(eip) {
            return addr;
        }
        let addr = self.emit_interp_stub(eip);
        self.registry.remember_stub(eip, addr);
        addr
    }

    /// Emits a tiny stub that single-steps the instruction at `eip`.
    pub(super) fn emit_interp_stub(&mut self, eip: u32) -> u64 {
        let mut cb = ipf::asm::CodeBuilder::new();
        cb.push(Op::Movl {
            d: GR_STATE,
            imm: eip as u64,
        });
        cb.stop();
        cb.push(Op::Br {
            target: Target::Abs(StubKind::InterpStep.addr()),
        });
        let code = cb.assemble_relocatable();
        self.machine.arena.install(code, region::OTHER)
    }

    /// The profile record of guest `eip`. Records are keyed by EIP and
    /// survive both eviction and flushing, so a re-translated block
    /// keeps its use counter and re-heats quickly.
    pub(super) fn profile_slot(&mut self, os: &mut dyn BtOs, eip: u32) -> Profile {
        if let Some(&p) = self.dispatch.profile_of.get(&eip) {
            return p;
        }
        let p = self.alloc_profile(os);
        self.dispatch.profile_of.insert(eip, p);
        p
    }

    /// Allocates one per-block profile record, growing the mapped
    /// profile region through the OS on demand. When the region is
    /// exhausted or the OS refuses the mapping (ENOMEM), degrades to the
    /// shared [`Profile::OVERFLOW`] record.
    fn alloc_profile(&mut self, os: &mut dyn BtOs) -> Profile {
        let p = self.dispatch.cursor;
        let end = p.next().base();
        if end > layout::PROFILE_BASE + layout::PROFILE_SIZE {
            self.stats.os_alloc_failures += 1;
            return Profile::OVERFLOW;
        }
        while end > self.dispatch.mapped {
            if !os.alloc_pages(&mut self.mem, self.dispatch.mapped, PROFILE_CHUNK) {
                self.stats.os_alloc_failures += 1;
                return Profile::OVERFLOW;
            }
            self.dispatch.mapped += PROFILE_CHUNK;
        }
        self.dispatch.cursor = p.next();
        Predictions::empty(&mut self.mem, p.ic_addr());
        p
    }

    /// Every handed-out record's inline-cache slot, the overflow
    /// record's first (coherence tests scan these).
    pub fn ic_slots(&self) -> impl Iterator<Item = u64> {
        Profile::handed_out(self.dispatch.cursor).map(Profile::ic_addr)
    }

    /// Harvests the indirect-acceleration counters — the inline caches'
    /// hit words and the machine's taps — into the statistics.
    /// Idempotent like [`Engine::collect_hot_exit_stats`]: every counter
    /// is *assigned* from its source, and the inline-cache hit total is
    /// an order-independent sum over all site slots.
    pub fn collect_indirect_stats(&mut self) {
        let profiles = Profile::handed_out(self.dispatch.cursor);
        let hits = profiles.map(|p| self.mem.read(p.ic_hits_addr(), 8).unwrap_or(0));
        self.stats.ic_hits = hits.sum();
        Predictions::harvest(&self.machine.taps, &mut self.stats);
    }
}

#[cfg(test)]
impl Dispatch {
    /// Pins `id` as if one of its exits were being handled.
    pub(crate) fn pin(&mut self, id: u32) {
        self.pinned = Some(id);
    }

    /// The allocation cursor and the EIP -> profile record map, for
    /// breaking them on purpose.
    pub(crate) fn slots_mut(&mut self) -> (&mut Profile, &mut HashMap<u32, Profile>) {
        (&mut self.cursor, &mut self.profile_of)
    }
}
