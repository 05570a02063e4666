//! Self-modifying code: stores onto the write-protected pages translated
//! code came from, and the thrash governor ([`SmcGovernor`]) for pages
//! the guest keeps rewriting.

use super::{src_checksum, BlockKind, Engine, ExitAction};
use crate::btos::BtOs;
use crate::chaos::Blacklist;
use crate::layout::{self, StubKind};
use crate::{policy, state, trace::EventData};
use std::collections::{HashMap, HashSet};

/// The SMC-thrash governor: which pages are rewritten often enough to
/// stop protecting them.
#[derive(Debug)]
pub(crate) struct SmcGovernor {
    /// Pages in snapshot-check mode: never write-protected again, their
    /// translations carry a prologue comparing the source with a
    /// snapshot instead.
    snapshot: HashSet<u32>,
    /// Page -> (window start, disturbances inside the window).
    window: HashMap<u32, (u64, u32)>,
    /// Pages interpret-only for now (exponential backoff, by page).
    blacklist: Blacklist,
    /// Disturbances tolerated per page within
    /// [`policy::SMC_THRASH_WINDOW`] (`Config::smc_thrash_threshold`;
    /// 0 disables the governor).
    threshold: u32,
}

impl SmcGovernor {
    /// A governor that has seen nothing, striking at `threshold`.
    pub(super) fn new(threshold: u32) -> SmcGovernor {
        SmcGovernor {
            snapshot: HashSet::new(),
            window: HashMap::new(),
            blacklist: Blacklist::new(policy::SMC_BACKOFF_CYCLES),
            threshold,
        }
    }

    /// Whether translations from `page` use the snapshot check instead
    /// of write protection.
    pub(crate) fn is_snapshot(&self, page: u32) -> bool {
        self.snapshot.contains(&page)
    }

    /// Whether `page` is interpret-only at cycle `now`.
    pub(super) fn interpret_only(&self, page: u32, now: u64) -> bool {
        self.blacklist.is_blocked(page, now)
    }

    /// Counts one disturbance of `page` at cycle `now`. The one that
    /// reaches the threshold within the window strikes the page, puts
    /// it in snapshot mode for good and returns its strike count.
    fn strike(&mut self, page: u32, now: u64) -> Option<u32> {
        if self.threshold == 0 {
            return None;
        }
        let w = self.window.entry(page).or_insert((now, 0));
        if now.saturating_sub(w.0) > policy::SMC_THRASH_WINDOW {
            *w = (now, 0);
        }
        w.1 += 1;
        if w.1 < self.threshold {
            return None;
        }
        self.window.remove(&page);
        self.snapshot.insert(page);
        self.blacklist.strike(page, now);
        Some(self.blacklist.strikes(page))
    }

    /// Every struck page is in snapshot mode, and no snapshot-mode page
    /// is write-protected.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn audit(&self, mem: &ia32::mem::GuestMem) -> Result<(), String> {
        let loose = self.blacklist.keys().find(|p| !self.snapshot.contains(p));
        check!(
            "smc",
            loose.is_none(),
            "struck page {loose:x?} is not in snapshot mode"
        );
        let protected = |&&p: &&u32| {
            mem.prot_of((p as u64) << 12)
                .is_some_and(|p| p.write_protect_code)
        };
        let guarded = self.snapshot.iter().find(protected);
        check!(
            "smc",
            guarded.is_none(),
            "snapshot-mode page {guarded:x?} is write-protected"
        );
        Ok(())
    }
}

impl Engine {
    /// A store in translated code hit a write-protected code page and
    /// has not run. It runs in the reference interpreter from the
    /// precise state at the storing instruction (full IA-32 semantics,
    /// e.g. for `xchg`/`push`), under [`Self::store_on_code_page`].
    pub(super) fn handle_smc_store(
        &mut self,
        os: &mut dyn BtOs,
        ip: u64,
        slot: u8,
        addr: u64,
    ) -> ExitAction {
        let cpu = self.reconstruct(ip, slot);
        state::cpu_to_machine(&cpu, &mut self.machine);
        self.smc_from_interp(os, cpu.eip, addr)
    }

    /// An SMC store reached the interpreter escape hatch directly (the
    /// ladder's interpret floor, or the interpret-only gate of a page
    /// whose neighbor is still protected) and tripped write protection
    /// there instead of in translated code. Same recipe as
    /// [`Self::handle_smc_store`] minus the machine-state
    /// reconstruction: the interpreter already had precise state.
    pub(super) fn smc_from_interp(&mut self, os: &mut dyn BtOs, eip: u32, addr: u64) -> ExitAction {
        self.store_on_code_page(addr, |e| e.interp_one(os, eip))
    }

    /// Runs `store`, which writes to the write-protected code page
    /// holding `addr`, with the protection lifted: then invalidates the
    /// page's translations per extent, feeds the thrash governor, and
    /// re-arms the protection unless the governor took the page. One
    /// recovery scope.
    pub(super) fn store_on_code_page<R>(
        &mut self,
        addr: u64,
        store: impl FnOnce(&mut Engine) -> R,
    ) -> R {
        self.recovering(|e| {
            e.stats.smc_events += 1;
            let page = (addr >> 12) as u32;
            e.mem.set_code_protect(addr, false);
            let r = store(e);
            e.smc_invalidate_extents(page);
            // The governor may blacklist the page (leaving it
            // unprotected and interpret-only); otherwise re-arm write
            // protection.
            if !e.note_smc_disturbance(page) {
                e.mem.set_code_protect(addr, true);
            }
            r
        })
    }

    /// Post-store, compares each registered block's source bytes
    /// against its translation-time checksum. Unchanged cold blocks
    /// keep their translations (and their registration); changed blocks
    /// and hot traces (whose source span exceeds their recorded range)
    /// are orphaned.
    pub(super) fn smc_invalidate_extents(&mut self, page: u32) {
        // The guest rewrote this page: whatever any tenant published
        // for it is stale. Sweep the namespace first so a peer racing
        // this invalidation sees the generation bump.
        self.shared_notify(|ns, c| ns.invalidate_page(page, c));
        for id in self.registry.on_page(page).to_vec() {
            let b = &self.blocks[id as usize];
            if b.kind != BlockKind::Hot && src_checksum(&self.mem, b.src_range) == b.src_fnv {
                self.stats.smc_extent_keeps += 1;
            } else {
                self.stats.smc_extent_orphans += 1;
                self.orphan_block(id);
            }
        }
    }

    /// The single caller of [`Registry::orphan`]: block `id` leaves the
    /// registry, its entry forwards to the re-enter stub (code already
    /// inside it runs on to its next exit), and every lookup way and
    /// inline cache keyed on its EIP is emptied so the next transfer
    /// goes through dispatch.
    pub(super) fn orphan_block(&mut self, id: u32) {
        let b = &self.blocks[id as usize];
        let (eip, entry) = (b.eip, b.entry);
        self.registry.orphan(b);
        self.forward(entry, StubKind::Reenter.addr());
        for s in self.predictions_of(eip) {
            let _ = self.mem.write(s, 8, layout::LOOKUP_EMPTY_KEY);
        }
        self.audited();
    }

    /// Counts one SMC disturbance against `page` for the thrash
    /// governor. Over the threshold within the window, the page is
    /// blacklisted to interpret-only with exponential backoff (all its
    /// surviving translations orphaned, write protection dropped) and
    /// `true` is returned. After the backoff expires, fresh translations
    /// are built in snapshot-check mode, so the page never pays the
    /// protection-fault storm again.
    pub(crate) fn note_smc_disturbance(&mut self, page: u32) -> bool {
        let Some(strikes) = self.smc.strike(page, self.machine.cycles) else {
            return false;
        };
        // Snapshot-check mode for post-backoff retranslations; writes
        // to the unprotected page are then caught by the SmcFail
        // prologue instead of protection faults.
        self.mem.set_code_protect((page as u64) << 12, false);
        self.stats.smc_blacklists += 1;
        self.trace_emit(EventData::SmcBlacklist { page, strikes });
        // Orphan every surviving translation on the page: dispatches
        // must miss the registry so they reach the interpret-only gate.
        for id in self.registry.on_page(page).to_vec() {
            self.orphan_block(id);
        }
        // Deny the page in the shared namespace: peers must not import
        // translations of code this guest is busy rewriting.
        self.shared_notify(|ns, c| ns.deny_page(page, c));
        true
    }
}
