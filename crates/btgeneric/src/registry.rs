//! The code cache's registry: the one owner of every index that says
//! where a translation is and who points at it.
//!
//! A translated block is in one of three states. **Live**: registered —
//! `by_eip` maps its guest EIP to it, dispatch reaches it, and every
//! guest page its source overlaps lists it (and is write-protected), so
//! a store to that source finds it. **Orphaned**: no longer registered
//! (an SMC store, the thrash governor, or an injected invalidation took
//! it out of `by_eip` and off every page list; its entry forwards to
//! the re-enter stub) but its code is still allocated, may still be
//! running, and still owns its extents and inbound links.
//! **Retired**: evicted — extents released, nothing names it.
//!
//! Four transitions move a block between states, and each touches
//! *every* index: [`Registry::install`] (→ live), [`Registry::orphan`]
//! (live → orphaned), [`Registry::retire`] (→ retired) and
//! [`Registry::clear`] (everything → gone). The fields are private, so
//! there is no fifth. What is left outside are single-index notes that
//! cannot change a block's state: an exit was chained or is waiting
//! ([`Registry::link`], [`Registry::await_target`]), a block heated
//! ([`Registry::nominate`]), an interpreter stub was emitted.
//!
//! The registry never touches guest memory or the arena. Each
//! transition hands back what its single `Engine` caller must do there:
//! pages to (un)protect, branches to un-link, extents to release.
//! [`Engine::audit`] re-derives every index from `blocks`, the arena
//! and the prediction tables and runs after every transition in a
//! debug build.

use crate::engine::{source_pages, BlockInfo};
use crate::extents::ExtentIndex;
use crate::layout::StubKind;
use std::collections::{BTreeSet, HashMap};

/// The translation-lifecycle indices (see the module docs).
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct Registry {
    /// Guest EIP -> the live block translated from it.
    by_eip: HashMap<u32, u32>,
    /// Arena address -> owning block, over every unevicted generation.
    extents: ExtentIndex,
    /// Guest page -> live blocks with source bytes on it.
    by_page: HashMap<u32, Vec<u32>>,
    /// Live block -> the pages that list it beyond its EIP's own (a
    /// block that straddles a page boundary, a trace that inlines
    /// blocks from other pages).
    straddles: HashMap<u32, Vec<u32>>,
    /// Pages write-protected because translated code came from them.
    protected: BTreeSet<u32>,
    /// Block -> bundles whose branch was chained into (a generation of)
    /// it; eviction re-points them at the Untranslated stub.
    links_into: HashMap<u32, Vec<u64>>,
    /// Target EIP -> exit bundles waiting for it to be translated.
    pending_exits: HashMap<u32, Vec<u64>>,
    /// Blocks registered for hot promotion (never eviction victims).
    candidates: Vec<u32>,
    /// Cached interpreter stubs by guest EIP.
    interp_stubs: HashMap<u32, u64>,
    /// Transitions so far (paces the audit's whole-arena scans).
    transitions: u64,
}

/// What [`Registry::install`] leaves for the engine.
pub(crate) struct Installed {
    /// Pages to write-protect.
    pub protect: Vec<u32>,
    /// The block that was live at this EIP until now, if another one:
    /// it has been orphaned and its entry must be forwarded.
    pub displaced: Option<u32>,
}

/// What [`Registry::retire`] leaves for the engine.
pub(crate) struct Retired {
    /// Every generation's arena extent, to release.
    pub extents: Vec<(u64, u64)>,
    /// Bundles outside those extents that branch into them, to un-link.
    pub inbound: Vec<u64>,
}

impl Registry {
    /// The live block at `eip`.
    pub(crate) fn live(&self, eip: u32) -> Option<u32> {
        self.by_eip.get(&eip).copied()
    }

    /// Whether `b` is the live block at its EIP.
    pub(crate) fn is_registered(&self, b: &BlockInfo) -> bool {
        self.live(b.eip) == Some(b.id)
    }

    /// Every live `(eip, block)`, in no particular order.
    pub(crate) fn registered(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.by_eip.iter().map(|(&eip, &id)| (eip, id))
    }

    /// The block owning the unevicted extent that contains `addr`.
    pub(crate) fn owner_of(&self, addr: u64) -> Option<u32> {
        self.extents.owner_of(addr)
    }

    /// The owner of every unevicted extent, in address order (a block
    /// appears once per generation).
    pub(crate) fn unevicted(&self) -> impl Iterator<Item = u32> + '_ {
        self.extents.owners()
    }

    /// The live blocks with source bytes on `page`.
    pub(crate) fn on_page(&self, page: u32) -> &[u32] {
        self.by_page.get(&page).map_or(&[], Vec::as_slice)
    }

    /// Blocks waiting for a hot session.
    pub(crate) fn candidates(&self) -> &[u32] {
        &self.candidates
    }

    /// Registers `id` for the next hot session (once).
    pub(crate) fn nominate(&mut self, id: u32) {
        if !self.candidates.contains(&id) {
            self.candidates.push(id);
        }
    }

    /// Hands the session its candidates, leaving none.
    pub(crate) fn take_candidates(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.candidates)
    }

    /// The cached interpreter stub for `eip`.
    pub(crate) fn interp_stub(&self, eip: u32) -> Option<u64> {
        self.interp_stubs.get(&eip).copied()
    }

    /// Caches `addr` as the interpreter stub for `eip`.
    pub(crate) fn remember_stub(&mut self, eip: u32, addr: u64) {
        self.interp_stubs.insert(eip, addr);
    }

    /// Records that the branch in bundle `site` was chained into block
    /// `target`.
    pub(crate) fn link(&mut self, target: u32, site: u64) {
        self.links_into.entry(target).or_default().push(site);
    }

    /// Records that exit bundle `site` waits for `eip` to be translated.
    pub(crate) fn await_target(&mut self, eip: u32, site: u64) {
        self.pending_exits.entry(eip).or_default().push(site);
    }

    /// The exit bundles that waited for `eip` (now translated).
    pub(crate) fn take_waiting(&mut self, eip: u32) -> Vec<u64> {
        self.pending_exits.remove(&eip).unwrap_or_default()
    }

    /// A new generation of `b` — first cold translation, same-id
    /// regeneration, or hot promotion — becomes the live translation of
    /// `b.eip`. `b.entry`/`b.range`/`b.hot` already name the new
    /// generation; it joins `b.extents` and the extent index here.
    /// Every page its source ([`source_spans`], `b.eip` among them)
    /// overlaps lists the block and is to be protected. Whatever else
    /// was live at the EIP (a fresh block standing where a swept
    /// candidate is now promoted) is orphaned and reported.
    pub(crate) fn install(
        &mut self,
        b: &mut BlockInfo,
        protectable: impl Fn(u32) -> bool,
    ) -> Installed {
        self.transitions += 1;
        b.extents.push(b.range);
        self.extents.insert(b.range, b.id);
        // The page lists are sets: whatever was listed for this EIP —
        // an earlier generation of `b`, or the block it displaces —
        // comes off before the new generation goes on.
        let previous = self.by_eip.insert(b.eip, b.id);
        if let Some(old) = previous {
            self.unlist(old, b.eip);
        }
        let pages = pages_of_spans(source_spans(b));
        let head = b.eip >> 12;
        debug_assert!(pages.contains(&head), "a block's source starts at its EIP");
        for &page in &pages {
            self.by_page.entry(page).or_default().push(b.id);
        }
        let protect: Vec<u32> = pages.iter().copied().filter(|&p| protectable(p)).collect();
        self.protected.extend(&protect);
        if pages.len() > 1 {
            let beyond = pages.into_iter().filter(|&p| p != head).collect();
            self.straddles.insert(b.id, beyond);
        }
        Installed {
            protect,
            displaced: previous.filter(|&old| old != b.id),
        }
    }

    /// `b` stops being the live translation of its EIP: dispatch and
    /// page sweeps no longer find it. It keeps its extents and inbound
    /// links (its code may still be running); the engine forwards its
    /// entry to the re-enter stub.
    pub(crate) fn orphan(&mut self, b: &BlockInfo) {
        self.transitions += 1;
        if self.is_registered(b) {
            self.by_eip.remove(&b.eip);
        }
        self.unlist(b.id, b.eip);
    }

    /// `b` is evicted: nothing may name it or any bundle of it again.
    /// The engine un-links `inbound`, purges the prediction tables and
    /// releases `extents`.
    pub(crate) fn retire(&mut self, b: &mut BlockInfo) -> Retired {
        self.orphan(b);
        let extents = std::mem::take(&mut b.extents);
        let inside = |a: &u64| extents.iter().any(|&(s, e)| *a >= s && *a < e);
        // A self-link inside the victim is reclaimed with it.
        let mut inbound = self.links_into.remove(&b.id).unwrap_or_default();
        inbound.retain(|a| !inside(a));
        // Patch sites inside the reclaimed extents may be reused for
        // unrelated code: drop them from both side tables.
        for table in [&mut self.pending_exits, &mut self.links_into] {
            for sites in table.values_mut() {
                sites.retain(|a| !inside(a));
            }
            table.retain(|_, sites| !sites.is_empty());
        }
        for &(start, _) in &extents {
            self.extents.remove(start);
        }
        self.candidates.retain(|&c| c != b.id);
        b.evicted = true;
        b.range = (0, 0);
        b.entry = StubKind::Untranslated.addr();
        b.hot = None;
        Retired { extents, inbound }
    }

    /// Every translation is gone (cache flush). Returns the pages to
    /// un-protect.
    pub(crate) fn clear(&mut self) -> BTreeSet<u32> {
        let gone = std::mem::take(self);
        self.transitions = gone.transitions + 1;
        gone.protected
    }

    /// Takes block `id`, translated from `eip`, off every page list.
    fn unlist(&mut self, id: u32, eip: u32) {
        let beyond = self.straddles.remove(&id).unwrap_or_default();
        for page in std::iter::once(eip >> 12).chain(beyond) {
            if let Some(listed) = self.by_page.get_mut(&page) {
                listed.retain(|&b| b != id);
                if listed.is_empty() {
                    self.by_page.remove(&page);
                }
            }
        }
    }
}

/// The guest pages `spans` (`[start, end)` byte ranges) overlap,
/// ascending, each once.
fn pages_of_spans(spans: &[(u32, u32)]) -> Vec<u32> {
    let mut pages: Vec<u32> = spans.iter().flat_map(|&span| source_pages(span)).collect();
    pages.sort_unstable();
    pages.dedup();
    pages
}

/// The guest byte ranges `b`'s current generation was translated from:
/// a cold block's own source, or everything a hot trace covers.
fn source_spans(b: &BlockInfo) -> &[(u32, u32)] {
    match &b.hot {
        Some(hot) => &hot.spans,
        None => std::slice::from_ref(&b.src_range),
    }
}

#[cfg(any(test, debug_assertions))]
impl crate::engine::Engine {
    /// [`Engine::audit`] as a debug build runs it after registry
    /// transitions: after every one while the cache is small, and after
    /// one in every `1 + (blocks + bundles) / AUDIT_STRIDE_WORK` once it
    /// is not — the audit scans every block and every bundle, so paced
    /// like this a transition costs about the same to audit whatever
    /// the cache has grown to. (Unpaced, a 28 000-block guest spends
    /// thirty times longer in the audit than in the translator.)
    #[cfg(debug_assertions)]
    pub(crate) fn audit_transition(&self) -> Result<(), String> {
        let work = self.machine.arena.len() + self.blocks.len();
        match self.registry.transitions % (1 + (work / AUDIT_STRIDE_WORK) as u64) {
            0 => self.audit(),
            _ => Ok(()),
        }
    }

    /// The code cache's cross-index invariants, each re-derived the
    /// slow way from `blocks`, the arena and the three prediction
    /// tables in guest memory. Names the first one that does not hold.
    pub(crate) fn audit(&self) -> Result<(), String> {
        use crate::layout;
        let (r, blocks, arena) = (&self.registry, &self.blocks, &self.machine.arena);
        let unevicted = |id: u32| blocks.get(id as usize).is_some_and(|b| !b.evicted);

        // by_eip: every entry names an unevicted block with that EIP
        // whose entry lies in its range, the last of its extents.
        for (eip, id) in r.registered() {
            let ok = blocks.get(id as usize).is_some_and(|b| {
                !b.evicted
                    && b.eip == eip
                    && b.extents.last() == Some(&b.range)
                    && (b.range.0..b.range.1).contains(&b.entry)
            });
            check!(
                "by_eip",
                ok,
                "{eip:#x} -> block {id} is not a live block at that EIP"
            );
        }

        // pages: a live block is listed once by every page of its source
        // and by no other; nothing else is listed.
        let mut listing: HashMap<u32, Vec<u32>> = HashMap::new();
        for (&page, ids) in &r.by_page {
            for &id in ids {
                listing.entry(id).or_default().push(page);
            }
        }
        for (_, id) in r.registered() {
            let mut got = listing.remove(&id).unwrap_or_default();
            got.sort_unstable();
            let want = pages_of_spans(source_spans(&blocks[id as usize]));
            check!(
                "pages",
                got == want && r.straddles.get(&id).map_or(1, |more| 1 + more.len()) == want.len(),
                "live block {id} has source on pages {want:x?} and is listed by {got:x?}"
            );
        }
        check!(
            "pages",
            listing.is_empty() && r.straddles.keys().all(|&id| unevicted(id)),
            "blocks {:?} are listed and not live",
            listing.keys()
        );

        // protected: every writable page with live code on it is
        // write-protected, unless it is in explicit-check mode. (A
        // recovery scope lifts the protection of the page it is
        // handling while it re-runs the store.)
        for &page in r.by_page.keys() {
            let prot = self.mem.prot_of((page as u64) << 12);
            if prot.is_some_and(|p| p.write) && !self.smc.is_snapshot(page) {
                check!(
                    "protected",
                    r.protected.contains(&page)
                        && (self.ladder.depth() > 0 || prot.is_some_and(|p| p.write_protect_code)),
                    "page {page:#x} holds live code and is not write-protected"
                );
            }
        }

        // candidates, pinned: unevicted.
        for &id in &r.candidates {
            check!("candidates", unevicted(id), "block {id} is evicted");
        }
        if let Some(id) = self.dispatch.pinned() {
            check!("pinned", unevicted(id), "block {id} is evicted");
        }

        let free: Vec<(u64, u64)> = arena.free_extents().collect();
        let allocated = |addr: u64| {
            arena.index_of(addr & !(ipf::Bundle::SIZE - 1)).is_some()
                && !free.iter().any(|&(s, e)| addr >= s && addr < e)
        };

        // extents: the index is the union of the unevicted blocks'
        // extents, pairwise disjoint, allocated, and off the free list.
        let mut want: Vec<(u64, u64, u32)> = blocks
            .iter()
            .flat_map(|b| b.extents.iter().map(|&(s, e)| (s, e, b.id)))
            .collect();
        want.sort_unstable();
        check!(
            "extents",
            blocks.iter().all(|b| !b.evicted || b.extents.is_empty()),
            "an evicted block still owns an extent"
        );
        check!(
            "extents",
            r.extents.iter().eq(want.iter().copied()),
            "the index is not the union of the unevicted blocks' extents"
        );
        let mut spans: Vec<(u64, u64)> = want.iter().map(|&(s, e, _)| (s, e)).collect();
        spans.extend(&free);
        spans.sort_unstable();
        check!(
            "extents",
            spans.windows(2).all(|w| w[0].1 <= w[1].0)
                && spans.last().is_none_or(|&(_, e)| e <= arena.end()),
            "extents overlap each other, the free list or the arena's end"
        );

        // links: every recorded site is live code branching into its
        // target block.
        for (&id, sites) in &r.links_into {
            for &site in sites {
                check!(
                    "links",
                    r.owner_of(site).is_some()
                        && self.branches_at(site).any(|t| r.owner_of(t) == Some(id)),
                    "site {site:#x} is not live code branching into block {id}"
                );
            }
        }

        // links, the use-after-free direction: every branch from one
        // block's code into another's is recorded.
        for (start, end, owner) in r.extents.iter() {
            for site in (start..end).step_by(ipf::Bundle::SIZE as usize) {
                for t in self.branches_at(site) {
                    if let Some(tid) = r.owner_of(t).filter(|&tid| tid != owner) {
                        check!(
                            "links",
                            r.links_into.get(&tid).is_some_and(|v| v.contains(&site)),
                            "unrecorded branch at {site:#x} into block {tid}"
                        );
                    }
                }
            }
        }

        // pending: every waiting exit is live code still branching out
        // of the cache (to the Untranslated stub, or to an interpreter
        // stub it was sent to meanwhile).
        for (eip, sites) in &r.pending_exits {
            for &site in sites {
                check!(
                    "pending",
                    r.owner_of(site).is_some()
                        && self.branches_at(site).any(|t| r.owner_of(t).is_none()),
                    "exit {site:#x} waiting for {eip:#x} is not a live stub branch"
                );
            }
        }

        // predictions: no lookup way, shadow entry or inline cache with
        // a live key targets freed arena space.
        // (Nothing is freed while the free list is empty: a flush
        // truncates the arena and empties all three tables with it.)
        let tables = (layout::LOOKUP_ENTRIES + layout::SHADOW_ENTRIES) as usize * 16;
        let cells = match free.is_empty() {
            true => Vec::new(),
            false => self
                .mem
                .read_bytes(layout::LOOKUP_BASE, tables)
                .map_err(|_| "predictions: the lookup table is unmapped".to_string())?,
        };
        let word = |bytes: &[u8]| u64::from_le_bytes(bytes.try_into().expect("8 bytes"));
        let table = cells
            .chunks_exact(16)
            .filter(|c| c[..8] != [0xFF; 8])
            .map(|c| (word(&c[..8]), word(&c[8..])));
        let ic = self.ic_slots().filter(|_| !free.is_empty()).map(|s| {
            let cell = |a: u64| self.mem.read(a, 8).unwrap_or(0);
            (cell(s), cell(s + 8))
        });
        for (key, target) in table.chain(ic) {
            let in_cache = target >= arena.base() && target < layout::STUB_BASE;
            check!(
                "predictions",
                !(layout::is_live_key(key) && in_cache && !allocated(target)),
                "{key:#x} -> {target:#x} predicts freed arena space"
            );
        }

        // interp_stubs: allocated, and part of no block.
        for (&eip, &addr) in &r.interp_stubs {
            check!(
                "interp_stubs",
                allocated(addr) && r.owner_of(addr).is_none(),
                "the stub for {eip:#x} at {addr:#x} is freed or inside a block"
            );
        }
        self.ladder.audit()?;
        self.smc.audit(&self.mem)?;
        self.dispatch.audit()
    }

    /// The absolute branch targets in the bundle at `site`.
    pub(crate) fn branches_at(&self, site: u64) -> impl Iterator<Item = u64> + '_ {
        let bundle = self.machine.arena.bundle_at(site);
        let slots = bundle.map_or(&[][..], |b| &b.slots[..]);
        slots.iter().filter_map(|s| match s.op.target() {
            Some(ipf::inst::Target::Abs(t)) => Some(t),
            _ => None,
        })
    }
}

/// Blocks plus bundles of cache per transition skipped between two
/// audits; see [`Engine::audit_transition`].
#[cfg(debug_assertions)]
const AUDIT_STRIDE_WORK: usize = 256;

#[cfg(test)]
mod tests {
    use crate::engine::tests::{loop_and_chain, NullOs};
    use crate::engine::{Config, Engine};
    use crate::policy;

    /// A cache with something in every index: four chained live blocks
    /// (the last one straddles a page boundary, and its exit still
    /// waits for its target), a lookup way, a hot candidate, an
    /// interpreter stub and an evicted block's hole on the free list.
    /// Returns the engine, the live blocks' ids in chain order and the
    /// evicted block's id and former entry.
    fn populated() -> (Engine, [u32; 4], (u32, u64)) {
        let (mut engine, _, _, chain) = loop_and_chain(6, Config::default());
        let mut os = NullOs;
        let mut translate = |engine: &mut Engine, eip: u32| {
            let entry = engine.entry_of(&mut os, eip).expect("translates");
            (engine.registry.live(eip).expect("just installed"), entry)
        };
        let victim = translate(&mut engine, chain[5]);
        // Targets first, so each later block chains straight to them.
        let d = translate(&mut engine, chain[3]).0;
        let c = translate(&mut engine, chain[2]).0;
        let b = translate(&mut engine, chain[1]).0;
        let (a, entry) = translate(&mut engine, chain[0]);
        // The stub first: it would fill the hole the eviction leaves.
        engine.interp_stub_for(chain[4]);
        engine.evict_block(victim.0);
        engine.lookup_insert(chain[0], entry);
        engine.registry.nominate(a);
        (engine, [a, b, c, d], victim)
    }

    /// An EIP that cannot be translated — here because every attempt
    /// takes an injected fault; an unlowerable block goes the same way —
    /// is dispatched through one interpreter stub however often it
    /// comes back. (It used to get a new one per dispatch, which only a
    /// full flush reclaimed.) The counters are what they always were,
    /// and once translation succeeds it wins over the stub.
    #[test]
    fn an_untranslatable_eip_keeps_one_interpreter_stub() {
        use crate::chaos::{FaultKind, FaultPlan};
        const N: u32 = 50;
        let (mut engine, _, _, chain) = loop_and_chain(2, Config::default());
        engine.chaos = Some(FaultPlan::new(7).with(FaultKind::Translate, 1000, N));
        let before = engine.machine.arena.len();
        let dispatch = |engine: &mut Engine| engine.entry_of(&mut NullOs, chain[0]).unwrap();
        let stub = dispatch(&mut engine);
        for _ in 1..N {
            assert_eq!(dispatch(&mut engine), stub);
        }
        assert_eq!(
            engine.machine.arena.len() - before,
            2,
            "one two-bundle stub"
        );
        let counted = crate::stats::Stats {
            faults_injected: N as u64,
            interp_fallbacks: N as u64,
            ladder_recoveries: N as u64,
            ..Default::default()
        };
        assert_eq!(engine.stats, counted);
        assert_eq!(engine.audit(), Ok(()));

        // The plan's budget is spent: the next dispatch translates.
        let entry = dispatch(&mut engine);
        assert_ne!(entry, stub);
        assert_eq!(engine.entry_of_existing(chain[0]), Some(entry));
        assert_eq!(dispatch(&mut engine), entry);
        assert_eq!(engine.audit(), Ok(()));
    }

    /// Breaks each invariant in turn — poking the private indices, the
    /// arena's neighbours in guest memory, a seam owner's state, or the
    /// session's pin — and requires the audit to name the one that no
    /// longer holds.
    #[test]
    fn audit_names_each_broken_invariant() {
        let (engine, ..) = populated();
        assert_eq!(engine.audit(), Ok(()), "the unbroken cache");
        type Breakage = fn(&mut Engine, [u32; 4], (u32, u64));
        let breakages: [(&str, Breakage); 19] = [
            ("by_eip", |e, [a, ..], _| {
                // An EIP that names a block translated from another.
                e.registry.by_eip.insert(0x1234, a);
            }),
            ("by_eip", |e, _, (gone, _)| {
                let eip = e.blocks[gone as usize].eip;
                e.registry.by_eip.insert(eip, gone);
            }),
            ("extents", |e, [a, ..], _| {
                let start = e.blocks[a as usize].range.0;
                e.registry.extents.remove(start);
            }),
            ("extents", |e, [_, b, ..], (_, hole)| {
                // A generation recorded over freed space.
                e.blocks[b as usize].extents.insert(0, (hole, hole + 16));
                e.registry.extents.insert((hole, hole + 16), b);
            }),
            ("pages", |e, [a, ..], _| {
                let page = e.blocks[a as usize].eip >> 12;
                let listed = e.registry.by_page.get_mut(&page).unwrap();
                listed.retain(|&id| id != a);
            }),
            ("pages", |e, [a, ..], (gone, _)| {
                let page = e.blocks[a as usize].eip >> 12;
                e.registry.by_page.get_mut(&page).unwrap().push(gone);
            }),
            ("pages", |e, [.., d], _| {
                // The straddler forgotten on its second page: a store
                // there would not find it.
                let page = (e.blocks[d as usize].src_range.1 - 1) >> 12;
                assert_ne!(page, e.blocks[d as usize].eip >> 12);
                e.registry.by_page.remove(&page);
            }),
            ("protected", |e, _, _| e.registry.protected.clear()),
            ("protected", |e, [a, ..], _| {
                let eip = e.blocks[a as usize].eip;
                e.mem.set_code_protect(eip as u64, false);
            }),
            ("links", |e, [_, b, ..], _| {
                // The chain a -> b forgotten: evicting b would leave a
                // branching into freed space.
                e.registry.links_into.remove(&b);
            }),
            ("links", |e, [a, _, c, _], _| {
                // a's code holds no branch into c.
                let site = e.blocks[a as usize].range.0;
                e.registry.link(c, site);
            }),
            ("pending", |e, _, (_, hole)| {
                e.registry.await_target(0x9999, hole)
            }),
            ("predictions", |e, _, (_, hole)| {
                e.lookup_insert(0x7777, hole)
            }),
            ("candidates", |e, _, (gone, _)| {
                e.registry.candidates.push(gone)
            }),
            ("interp_stubs", |e, [a, ..], _| {
                let inside = e.blocks[a as usize].entry;
                e.registry.interp_stubs.insert(0x4242, inside);
            }),
            ("smc", |e, _, _| {
                // The governor takes the loop's page (no live code on
                // it), which is then write-protected behind its back.
                for _ in 0..e.cfg.smc_thrash_threshold {
                    e.note_smc_disturbance(0x400, &[]);
                }
                e.mem.set_code_protect(0x40_0000, true);
            }),
            ("profiles", |e, _, _| {
                // An EIP given the record the cursor has not handed out.
                let (cursor, profile_of) = e.dispatch.slots_mut();
                profile_of.insert(0x5555, *cursor);
            }),
            ("profiles", |e, _, _| {
                let (_, profile_of) = e.dispatch.slots_mut();
                let taken = *profile_of.values().max().unwrap();
                profile_of.insert(0x5555, taken);
            }),
            ("ladder", |e, _, _| e.ladder.open_past_the_floor()),
        ];
        for (k, (name, breakage)) in breakages.into_iter().enumerate() {
            let (mut engine, live, gone) = populated();
            breakage(&mut engine, live, gone);
            let verdict = engine.audit().expect_err(name);
            assert!(
                verdict.starts_with(&format!("{name}: ")),
                "breakage {k} should break `{name}`, the audit says: {verdict}"
            );
        }
        let (mut engine, _, (gone, _)) = populated();
        engine.dispatch.pin(gone);
        assert!(engine.audit().expect_err("pinned").starts_with("pinned: "));

        // A scope opened inside the floor does not go deeper.
        fn nested(e: &mut Engine, depth: u32) -> Result<(), String> {
            match depth {
                0 => e.audit(),
                _ => e.recovering(|e| nested(e, depth - 1)),
            }
        }
        let (mut engine, ..) = populated();
        assert_eq!(nested(&mut engine, policy::MAX_RECOVERY_DEPTH + 1), Ok(()));
        assert_eq!(
            engine.stats.recovery_depth_max,
            u64::from(policy::MAX_RECOVERY_DEPTH)
        );
    }
}
