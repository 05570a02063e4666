//! Self-modifying code: stores onto the write-protected pages translated
//! code came from, and the thrash governor ([`SmcGovernor`]) for code
//! the guest keeps rewriting.

use super::{source_pages, src_checksum, BlockKind, Engine, ExitAction};
use crate::btos::BtOs;
use crate::chaos::Blacklist;
use crate::cold::gen::SourceWord;
use crate::layout::{self, StubKind};
use crate::{policy, state, trace::EventData};
use ia32::mem::GuestMem;
use std::collections::{HashMap, HashSet};

/// The SMC-thrash governor. It decides per page which pages are
/// rewritten often enough to stop protecting them (snapshot mode), and
/// per block which blocks run interpret-only for now.
#[derive(Debug)]
pub(crate) struct SmcGovernor {
    /// Pages in snapshot-check mode: never write-protected again; every
    /// translation whose source touches one carries a prologue
    /// comparing its source bytes with a snapshot instead.
    snapshot: HashSet<u32>,
    /// Page -> (window start, disturbances inside the window).
    window: HashMap<u32, (u64, u32)>,
    /// Blocks interpret-only for now (exponential backoff, by EIP).
    blacklist: Blacklist,
    /// The source span of every block ever struck, by EIP.
    struck: HashMap<u32, (u32, u32)>,
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
            struck: HashMap::new(),
            threshold,
        }
    }

    /// Whether `page` is in snapshot mode (never write-protected).
    pub(crate) fn is_snapshot(&self, page: u32) -> bool {
        self.snapshot.contains(&page)
    }

    /// The first page of the source span `[start, end)` in snapshot
    /// mode, if any.
    fn governing(&self, span: (u32, u32)) -> Option<u32> {
        source_pages(span).find(|&p| self.is_snapshot(p))
    }

    /// Whether a translation of the source span `[start, end)` must
    /// check its bytes on entry: some page of it is in snapshot mode,
    /// so no write protection watches it. Cold generation emits the
    /// check on exactly this condition, and trace selection inlines no
    /// span it holds for.
    pub(crate) fn governs(&self, span: (u32, u32)) -> bool {
        self.governing(span).is_some()
    }

    /// Whether the block at `eip` is interpret-only at cycle `now`.
    pub(super) fn interpret_only(&self, eip: u32, now: u64) -> bool {
        self.blacklist.is_blocked(eip, now)
    }

    /// Counts one disturbance of `page` at cycle `now` that changed the
    /// blocks with source spans `casualties`. On a page already in
    /// snapshot mode a casualty strikes at once; otherwise the
    /// disturbance that reaches the threshold within the window strikes
    /// and puts the page in snapshot mode for good. A strike makes the
    /// casualties interpret-only and returns whether the page has just
    /// entered snapshot mode.
    fn strike(&mut self, page: u32, casualties: &[(u32, u32)], now: u64) -> Option<bool> {
        if self.threshold == 0 {
            return None;
        }
        if casualties.is_empty() || !self.is_snapshot(page) {
            let w = self.window.entry(page).or_insert((now, 0));
            if now.saturating_sub(w.0) > policy::SMC_THRASH_WINDOW {
                *w = (now, 0);
            }
            w.1 += 1;
            if w.1 < self.threshold {
                return None;
            }
            self.window.remove(&page);
        }
        for &span in casualties {
            self.blacklist.strike(span.0, now);
            self.struck.insert(span.0, span);
        }
        Some(self.snapshot.insert(page))
    }

    /// Every struck block's source span touches a snapshot-mode page,
    /// and no snapshot-mode page is write-protected.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn audit(&self, mem: &GuestMem) -> Result<(), String> {
        let loose = self
            .blacklist
            .keys()
            .find(|eip| !self.struck.get(eip).is_some_and(|&span| self.governs(span)));
        check!(
            "smc",
            loose.is_none(),
            "struck block {loose:x?} has no source on a snapshot-mode page"
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

/// The words the snapshot check of the source span `[start, end)`
/// compares: 8-byte-aligned, so no load of the check ever takes a
/// misalignment fault, each masked to the bytes it holds inside the
/// span. Aligned words never cross a page, and every page of a
/// translated span is readable.
pub(super) fn source_words(mem: &GuestMem, (start, end): (u32, u32)) -> Vec<SourceWord> {
    (u64::from(start & !7)..u64::from(end))
        .step_by(8)
        .map(|addr| {
            let lo = u64::from(start).saturating_sub(addr);
            let hi = (u64::from(end) - addr).min(8);
            let mask = (!0u64 >> (64 - 8 * (hi - lo))) << (8 * lo);
            SourceWord {
                addr,
                mask,
                bytes: mem.read(addr, 8).unwrap_or(0) & mask,
            }
        })
        .collect()
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
    /// ladder's interpret floor, or an interpret-only block) and
    /// tripped write protection there instead of in translated code.
    /// Same recipe as [`Self::handle_smc_store`] minus the
    /// machine-state reconstruction: the interpreter already had
    /// precise state.
    pub(super) fn smc_from_interp(&mut self, os: &mut dyn BtOs, eip: u32, addr: u64) -> ExitAction {
        self.store_on_code_page(addr, |e| e.interp_one(os, eip))
    }

    /// Runs `store`, which writes to the write-protected code page
    /// holding `addr`, with the protection lifted: then invalidates the
    /// page's translations per extent, feeds the thrash governor the
    /// blocks whose bytes changed, and re-arms the protection unless
    /// the governor took the page. One recovery scope.
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
            let changed = e.smc_invalidate_extents(page);
            if !e.note_smc_disturbance(page, &changed) {
                e.mem.set_code_protect(addr, true);
            }
            r
        })
    }

    /// Post-store, compares each registered block's source bytes
    /// against its translation-time checksum. Unchanged cold blocks
    /// keep their translations (and their registration); changed blocks
    /// and hot traces (whose source span exceeds their recorded range)
    /// are orphaned. Returns the source spans of the cold blocks whose
    /// bytes changed.
    pub(super) fn smc_invalidate_extents(&mut self, page: u32) -> Vec<(u32, u32)> {
        // The guest rewrote this page: whatever any tenant published
        // for it is stale. Sweep the namespace first so a peer racing
        // this invalidation sees the generation bump.
        self.shared_notify(|ns, c| ns.invalidate_page(page, c));
        let mut changed = Vec::new();
        for id in self.registry.on_page(page).to_vec() {
            let b = &self.blocks[id as usize];
            let cold = b.kind != BlockKind::Hot;
            if cold && src_checksum(&self.mem, b.src_range) == b.src_fnv {
                self.stats.smc_extent_keeps += 1;
                continue;
            }
            if cold {
                changed.push(b.src_range);
            }
            self.stats.smc_extent_orphans += 1;
            self.orphan_block(id);
        }
        changed
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

    /// Counts one SMC disturbance of `page`, which changed the blocks
    /// with source spans `casualties`, for the thrash governor. On a
    /// strike the casualties become interpret-only with exponential
    /// backoff and `true` is returned; the caller orphans them if they
    /// are still live. A page that enters snapshot mode loses its write
    /// protection, every translation from it is orphaned (each was made
    /// under protection and checks nothing), and it is denied in the
    /// shared namespace. After a block's backoff expires it is
    /// retranslated with the snapshot check, so the page never pays the
    /// protection-fault storm again.
    pub(crate) fn note_smc_disturbance(&mut self, page: u32, casualties: &[(u32, u32)]) -> bool {
        let Some(entered) = self.smc.strike(page, casualties, self.machine.cycles) else {
            return false;
        };
        for &(eip, _) in casualties {
            self.stats.smc_blacklists += 1;
            let strikes = self.smc.blacklist.strikes(eip);
            self.trace_emit(EventData::SmcBlacklist { eip, strikes });
        }
        if entered {
            self.mem.set_code_protect((page as u64) << 12, false);
            for id in self.registry.on_page(page).to_vec() {
                self.orphan_block(id);
            }
            // Peers must not import translations of code this guest is
            // busy rewriting.
            self.shared_notify(|ns, c| ns.deny_page(page, c));
        }
        true
    }

    /// A snapshot check failed: block `id`'s source changed under it on
    /// a page no write protection watches. The failure is the
    /// governor's feed for such pages: it strikes the block at once, and
    /// only the block leaves the registry.
    pub(super) fn smc_check_failed(&mut self, id: u32) -> ExitAction {
        self.stats.smc_events += 1;
        let b = &self.blocks[id as usize];
        let (eip, span) = (b.eip, b.src_range);
        let page = self.smc.governing(span).unwrap_or(eip >> 12);
        self.note_smc_disturbance(page, &[span]);
        if self.registry.is_registered(&self.blocks[id as usize]) {
            self.orphan_block(id);
        }
        ExitAction::Dispatch(eip)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia32::mem::Prot;

    #[test]
    fn the_governor_strikes_pages_once_and_blocks_each_time() {
        let mut g = SmcGovernor::new(3);
        let stub = (0x40_0040, 0x40_0046);
        for now in 0..2 {
            assert_eq!(g.strike(0x400, &[stub], now), None);
        }
        assert!(!g.governs(stub));
        // The third disturbance in the window: the page leaves
        // protection, and only the changed block goes interpret-only.
        assert_eq!(g.strike(0x400, &[stub], 2), Some(true));
        assert!(g.governs(stub) && g.governs((0x40_0FF0, 0x40_1004)));
        assert!(!g.governs((0x40_1000, 0x40_1004)));
        assert!(g.interpret_only(stub.0, 3) && !g.interpret_only(0x40_0000, 3));
        let expiry = 2 + policy::SMC_BACKOFF_CYCLES;
        assert!(!g.interpret_only(stub.0, expiry));
        // On the governed page a failed check strikes at once, with the
        // backoff doubled.
        assert_eq!(g.strike(0x400, &[stub], expiry), Some(false));
        assert!(g.interpret_only(stub.0, expiry + policy::SMC_BACKOFF_CYCLES));
        let mut mem = GuestMem::new();
        mem.map(0x40_0000, 0x1000, Prot::rwx());
        assert_eq!(g.audit(&mem), Ok(()));
        g.snapshot.clear();
        let verdict = g.audit(&mem).expect_err("an ungoverned struck block");
        assert!(verdict.starts_with("smc: "), "{verdict}");
    }

    #[test]
    fn source_words_cover_the_span_and_nothing_else() {
        let mut mem = GuestMem::new();
        mem.map(0x1000, 0x1000, Prot::rx());
        let bytes: Vec<u8> = (1..=32).collect();
        mem.write_forced(0x1000, &bytes);
        let covered = |span: (u32, u32)| {
            let mut seen = Vec::new();
            for w in source_words(&mem, span) {
                assert_eq!(w.addr % 8, 0, "aligned");
                for i in 0..8 {
                    if w.mask >> (8 * i) & 0xFF != 0 {
                        assert_eq!(w.mask >> (8 * i) & 0xFF, 0xFF, "whole bytes");
                        assert_eq!((w.bytes >> (8 * i)) as u8, (w.addr - 0x1000 + i) as u8 + 1);
                        seen.push(w.addr + i);
                    }
                }
                assert_eq!(w.bytes & !w.mask, 0);
            }
            seen
        };
        for (start, end) in [
            (0x1000, 0x1008),
            (0x1003, 0x1004),
            (0x1003, 0x100D),
            (0x1005, 0x1018),
        ] {
            let want: Vec<u64> = (start as u64..end as u64).collect();
            assert_eq!(covered((start, end)), want, "{start:#x}..{end:#x}");
        }
    }
}
