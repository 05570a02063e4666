//! Multi-tenant serving: a shared, sharded translation-cache namespace.
//!
//! One process serving hundreds to thousands of concurrent guest
//! sessions wants to pay each cold translation *once*, not once per
//! session. Translated bundles themselves cannot be shared — every
//! session's `Machine` owns its arena and the translator's data
//! regions live at fixed addresses inside that session's own
//! `GuestMem` — so, exactly like the warm-start image format
//! ([`crate::persist`]), sharing happens at the *generation metadata*
//! level: a [`SharedCache`] stores validated [`ImageBlock`] records,
//! and an importing tenant replays the deterministic cold generator at
//! its own arena position, paying the flat [`crate::cost::IMAGE_LOAD_CYCLES`]
//! instead of the per-instruction translation cost.
//!
//! ## Namespaces
//!
//! Records are only meaningful under the config/layout fingerprint
//! they were generated under, and only for the binary whose source
//! bytes they checksum. A [`SharedCache`] therefore maps a
//! [`namespace_key`] — `persist::fingerprint(cfg)` mixed with a binary
//! identity — to an isolated [`Namespace`]. Different binaries (or
//! differently configured engines) can never observe each other's
//! translations.
//!
//! ## Shards and generation tags
//!
//! Each namespace is split into [`Namespace::shards`] independently
//! locked shards by EIP hash. Every shard carries a monotonically
//! increasing **generation**; every entry records the shard generation
//! at publish time. Any invalidation event — a tenant's SMC
//! invalidation, an eviction, a governor blacklist, a cache flush —
//! removes the affected entries *and bumps the shard generation*, so a
//! consult that races (or follows) the invalidation sees a stale tag
//! and rejects the entry. The epoch is deliberately conservative:
//! same-shard neighbours of an invalidated EIP are also rejected until
//! they are re-published, trading a little re-publish churn for the
//! guarantee that a stale or reclaimed extent is never handed out.
//!
//! Generation tags are a *sharing-profitability* gate, not the
//! correctness gate: an importing tenant always re-checksums the
//! record's source span against **its own** guest memory before
//! regenerating (see `Engine::shared_consult`), so even a
//! hypothetically stale record could only be rejected, never executed
//! against the wrong bytes.
//!
//! The per-tenant read-only dispatch fast path (18 cycles) never
//! touches a shard lock: the shared namespace is consulted only on a
//! local translation *miss*, on the slow path that was already paying
//! for translation work.
//!
//! ## Locking
//!
//! Shards use `std::sync::RwLock` with opportunistic `try_read` /
//! `try_write`: a failed try falls back to a blocking acquire and is
//! counted by the caller (`Stats::shared_lock_contention`), so the
//! serving bench can report contention honestly.

use crate::btos::BtOs;
use crate::engine::{source_pages, src_checksum, BlockKind, Config, Engine, RecordSource};
use crate::persist::{self, ImageBlock};
use crate::stats::Stats;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Default shard count per namespace (power of two).
pub const DEFAULT_SHARDS: usize = 64;

/// Derives the namespace key for a tenant: the persist fingerprint of
/// its config (codegen knobs + address-space layout) mixed with a
/// caller-supplied binary identity (e.g. an FNV of the guest image).
/// Tenants share translations iff both match.
pub fn namespace_key(cfg: &Config, binary_id: u64) -> u64 {
    persist::fingerprint(cfg) ^ binary_id.rotate_left(17)
}

/// One published translation record: the generation inputs
/// ([`ImageBlock`], profile hints included) plus the shard generation
/// it was published under.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SharedEntry {
    /// The generation metadata an importing tenant replays.
    pub block: ImageBlock,
    /// Shard generation at publish time; a consult whose shard has
    /// moved past this tag rejects the entry.
    pub gen_tag: u64,
}

/// Outcome of a namespace consult (see [`Namespace::consult`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Consult {
    /// A current entry: the tenant may validate and import it.
    Hit(SharedEntry),
    /// An entry exists but its generation tag is stale (some tenant
    /// invalidated in this shard after it was published).
    GenStale,
    /// The EIP's page is denied (SMC-thrash governor blacklist).
    Denied,
    /// Nothing published for this EIP.
    Miss,
}

#[derive(Debug, Default)]
struct Shard {
    gen: u64,
    entries: HashMap<u32, SharedEntry>,
}

/// One binary's (and config shape's) shared translation namespace:
/// K independently locked, generation-tagged shards.
#[derive(Debug)]
pub struct Namespace {
    key: u64,
    shards: Vec<RwLock<Shard>>,
    /// Pages the SMC-thrash governor has denied for sharing: a tenant
    /// that blacklisted a page tells every other tenant not to import
    /// translations the guest is busy rewriting.
    denied_pages: RwLock<HashSet<u32>>,
}

impl Namespace {
    fn new(key: u64, shards: usize) -> Namespace {
        Namespace {
            key,
            shards: (0..shards.max(1))
                .map(|_| RwLock::new(Shard::default()))
                .collect(),
            denied_pages: RwLock::new(HashSet::new()),
        }
    }

    /// The namespace key this was created under.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    fn shard_index(&self, eip: u32) -> usize {
        // Same XOR-fold spirit as the indirect-branch lookup table's
        // set index (`layout::Predictions`): keep page-aligned EIPs
        // from piling into one shard.
        let e = eip as u64;
        ((e ^ (e >> 12)) % self.shards.len() as u64) as usize
    }

    fn read_shard(&self, i: usize, contention: &mut u64) -> RwLockReadGuard<'_, Shard> {
        match self.shards[i].try_read() {
            Ok(g) => g,
            Err(_) => {
                *contention += 1;
                self.shards[i].read().unwrap_or_else(|e| e.into_inner())
            }
        }
    }

    fn write_shard(&self, i: usize, contention: &mut u64) -> RwLockWriteGuard<'_, Shard> {
        match self.shards[i].try_write() {
            Ok(g) => g,
            Err(_) => {
                *contention += 1;
                self.shards[i].write().unwrap_or_else(|e| e.into_inner())
            }
        }
    }

    /// Looks up `eip`. Read-locks exactly one shard; `contention` is
    /// bumped if the lock was held.
    pub fn consult(&self, eip: u32, contention: &mut u64) -> Consult {
        if self.denies((eip, eip)) {
            return Consult::Denied;
        }
        let shard = self.read_shard(self.shard_index(eip), contention);
        match shard.entries.get(&eip) {
            Some(e) if self.denies(e.block.src_range) => Consult::Denied,
            Some(e) if e.gen_tag == shard.gen => Consult::Hit(e.clone()),
            Some(_) => Consult::GenStale,
            None => Consult::Miss,
        }
    }

    /// Whether any page of the source span `[start, end)` is denied.
    fn denies(&self, span: (u32, u32)) -> bool {
        let denied = self.denied_pages.read().unwrap_or_else(|e| e.into_inner());
        source_pages(span).any(|p| denied.contains(&p))
    }

    /// Publishes (or re-publishes) a record under the current shard
    /// generation. Returns false when a page of its source is denied.
    pub fn publish(&self, block: ImageBlock, contention: &mut u64) -> bool {
        if self.denies(block.src_range) {
            return false;
        }
        let mut shard = self.write_shard(self.shard_index(block.eip), contention);
        let tag = shard.gen;
        shard.entries.insert(
            block.eip,
            SharedEntry {
                block,
                gen_tag: tag,
            },
        );
        true
    }

    /// Updates a live entry's profile hints (heat, edge counters,
    /// indirect-target hint) without re-publishing the whole record —
    /// the end-of-session sync that lets later tenants start hot.
    /// Hints only ever grow (max-merge), so sync order between tenants
    /// cannot flap the stored profile.
    pub fn refresh_profile(
        &self,
        eip: u32,
        heat: u64,
        edges: (u32, u32),
        ic: (u32, u32),
        contention: &mut u64,
    ) -> bool {
        let mut shard = self.write_shard(self.shard_index(eip), contention);
        let gen = shard.gen;
        match shard.entries.get_mut(&eip) {
            Some(e) if e.gen_tag == gen => {
                let b = &mut e.block;
                b.heat = b.heat.max(heat);
                b.edges = (b.edges.0.max(edges.0), b.edges.1.max(edges.1));
                if ic.0 != 0 && ic.1 >= b.ic_hits {
                    b.ic_pred = ic.0;
                    b.ic_hits = ic.1;
                }
                true
            }
            _ => false,
        }
    }

    /// Invalidates one EIP (eviction, blacklist strike): removes the
    /// entry and bumps the shard generation. Returns true when an
    /// entry was actually present (a generation bump happened).
    pub fn invalidate(&self, eip: u32, contention: &mut u64) -> bool {
        let mut shard = self.write_shard(self.shard_index(eip), contention);
        if shard.entries.remove(&eip).is_some() {
            shard.gen += 1;
            true
        } else {
            false
        }
    }

    /// Invalidates every entry with source on a guest page (SMC
    /// invalidation), a block straddling onto it from the page before
    /// included: affected shards drop the entries and bump their
    /// generation. Returns the number of shard generations bumped.
    pub fn invalidate_page(&self, page: u32, contention: &mut u64) -> u64 {
        let mut bumped = 0;
        for i in 0..self.shards.len() {
            let mut shard = self.write_shard(i, contention);
            let before = shard.entries.len();
            shard
                .entries
                .retain(|_, e| !source_pages(e.block.src_range).contains(&page));
            if shard.entries.len() != before {
                shard.gen += 1;
                bumped += 1;
            }
        }
        bumped
    }

    /// Denies a page for sharing (SMC-thrash governor blacklist) and
    /// invalidates whatever it already published. Returns the number
    /// of shard generations bumped.
    pub fn deny_page(&self, page: u32, contention: &mut u64) -> u64 {
        self.denied_pages
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(page);
        self.invalidate_page(page, contention)
    }

    /// Bumps every shard generation (a tenant's full cache flush): all
    /// current entries become stale until re-published. Returns the
    /// number of shards bumped.
    pub fn bump_all(&self, contention: &mut u64) -> u64 {
        for i in 0..self.shards.len() {
            self.write_shard(i, contention).gen += 1;
        }
        self.shards.len() as u64
    }

    /// Number of entries currently stored (stale-tagged included).
    pub fn entries(&self) -> u64 {
        let mut c = 0;
        let mut cont = 0;
        for i in 0..self.shards.len() {
            c += self.read_shard(i, &mut cont).entries.len() as u64;
        }
        c
    }

    /// Number of *current* (non-stale) entries — the unique translated
    /// EIPs the namespace can serve, the denominator of the serving
    /// bench's dedup ratio.
    pub fn unique_eips(&self) -> u64 {
        let mut c = 0;
        let mut cont = 0;
        for i in 0..self.shards.len() {
            let s = self.read_shard(i, &mut cont);
            c += s.entries.values().filter(|e| e.gen_tag == s.gen).count() as u64;
        }
        c
    }

    /// Current generation of the shard holding `eip` (tests observe
    /// the tag protocol through this).
    pub fn shard_gen(&self, eip: u32) -> u64 {
        let mut cont = 0;
        self.read_shard(self.shard_index(eip), &mut cont).gen
    }
}

/// The process-wide shared translation cache: namespaces keyed by
/// [`namespace_key`], each sharded and generation-tagged.
#[derive(Debug)]
pub struct SharedCache {
    shards: usize,
    namespaces: Mutex<HashMap<u64, Arc<Namespace>>>,
    next_tenant: Mutex<u32>,
}

impl SharedCache {
    /// A shared cache whose namespaces will have `shards` shards each.
    pub fn new(shards: usize) -> Arc<SharedCache> {
        Arc::new(SharedCache {
            shards: shards.max(1),
            namespaces: Mutex::new(HashMap::new()),
            next_tenant: Mutex::new(0),
        })
    }

    /// The namespace for `key`, created on first use.
    pub fn namespace(&self, key: u64) -> Arc<Namespace> {
        let mut map = self.namespaces.lock().unwrap_or_else(|e| e.into_inner());
        map.entry(key)
            .or_insert_with(|| Arc::new(Namespace::new(key, self.shards)))
            .clone()
    }

    /// Mints a tenant handle into the namespace for `key` (tenant ids
    /// are unique across the cache, in admission order).
    pub fn tenant(&self, key: u64) -> SharedTenant {
        let ns = self.namespace(key);
        let mut next = self.next_tenant.lock().unwrap_or_else(|e| e.into_inner());
        let id = *next;
        *next += 1;
        SharedTenant { ns, tenant: id }
    }

    /// Number of namespaces created so far.
    pub fn namespaces(&self) -> usize {
        self.namespaces
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    /// Sum of current (non-stale) entries across all namespaces.
    pub fn unique_eips(&self) -> u64 {
        self.namespaces
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .map(|ns| ns.unique_eips())
            .sum()
    }

    /// One-line report: namespaces, shards, and entry population.
    pub fn summary(&self) -> String {
        let map = self.namespaces.lock().unwrap_or_else(|e| e.into_inner());
        let entries: u64 = map.values().map(|ns| ns.entries()).sum();
        let unique: u64 = map.values().map(|ns| ns.unique_eips()).sum();
        format!(
            "shared-cache: {} namespace(s) x {} shards | {} entries ({} current)",
            map.len(),
            self.shards,
            entries,
            unique,
        )
    }
}

/// One session's handle into a shared namespace: attach with
/// `Engine::attach_shared`.
#[derive(Clone, Debug)]
pub struct SharedTenant {
    /// The namespace this tenant publishes into / consults.
    pub ns: Arc<Namespace>,
    /// Unique tenant id (admission order).
    pub tenant: u32,
}

/// A session's attachment to a shared namespace — the tenant hooks'
/// state. Detached (the default), every hook does nothing.
#[derive(Debug, Default)]
pub(crate) struct Tenant {
    /// The namespace handle, once attached.
    shared: Option<SharedTenant>,
}

impl Tenant {
    /// Runs `f` against the attached namespace and adds the lock
    /// contention it met to `stats`; `None` when detached.
    fn with<R>(&self, stats: &mut Stats, f: impl FnOnce(&Namespace, &mut u64) -> R) -> Option<R> {
        let tenant = self.shared.as_ref()?;
        let mut contention = 0;
        let r = f(&tenant.ns, &mut contention);
        stats.shared_lock_contention += contention;
        Some(r)
    }
}

impl Engine {
    /// Attaches this session to a shared multi-tenant translation
    /// namespace (see [`crate::serving`]). From now on, translation
    /// misses consult the namespace before paying the cold-translation
    /// cost, fresh translations are published to it, and every local
    /// invalidation path (SMC, eviction, governor blacklist, flush)
    /// notifies it. Attach before the first dispatch; tenants of the
    /// same namespace must run the same binary under the same config
    /// (the namespace key — [`namespace_key`] — encodes both, and the
    /// per-record source checksums enforce it).
    pub fn attach_shared(&mut self, tenant: SharedTenant) {
        self.tenant.shared = Some(tenant);
    }

    /// Consults the shared namespace for `eip` on a local translation
    /// miss and materializes a current entry at this tenant's arena
    /// position, profile hints included. Returns the installed entry,
    /// or `None` to fall through to ordinary cold translation.
    pub(crate) fn shared_consult(&mut self, os: &mut dyn BtOs, eip: u32) -> Option<u64> {
        match self
            .tenant
            .with(&mut self.stats, |ns, c| ns.consult(eip, c))?
        {
            Consult::Hit(e) => {
                let record = std::slice::from_ref(&e.block);
                self.materialize(os, record, RecordSource::Namespace).entry
            }
            Consult::GenStale | Consult::Denied => {
                self.stats.shared_gen_rejects += 1;
                None
            }
            Consult::Miss => None,
        }
    }

    /// Publishes the current translation of `eip` (its generation
    /// metadata + profile hints) to the shared namespace, if attached.
    /// Hot traces are not published — like warm-start images, the
    /// shared record is always the cold base a peer re-heats from.
    pub(crate) fn shared_publish(&mut self, eip: u32) {
        if self.tenant.shared.is_none() {
            return;
        }
        // A block already stale against our own memory is not exported:
        // it would only hand peers a guaranteed reject.
        let Some(b) = self.live_block(eip).filter(|b| {
            b.kind != BlockKind::Hot && src_checksum(&self.mem, b.src_range) == b.src_fnv
        }) else {
            return;
        };
        let rec = persist::record_of(self, b);
        if self
            .tenant
            .with(&mut self.stats, |ns, c| ns.publish(rec, c))
            == Some(true)
        {
            self.stats.shared_publishes += 1;
        }
    }

    /// End-of-slice profile sync: pushes this tenant's current heat /
    /// edge / inline-cache observations into the shared namespace
    /// (max-merge, so sync order between tenants cannot flap the stored
    /// profile). The scheduler calls this when a session is harvested,
    /// so later tenants start with the hottest profile any peer earned.
    pub fn shared_sync(&mut self) {
        let (mem, blocks, registry) = (&self.mem, &self.blocks, &self.registry);
        self.tenant.with(&mut self.stats, |ns, contention| {
            for (eip, id) in registry.registered() {
                let h = blocks[id as usize].profile.hints(mem);
                let ic = (h.ic_pred, h.ic_hits);
                ns.refresh_profile(eip, h.heat, h.edges, ic, contention);
            }
        });
    }

    /// Tells the shared namespace, if attached, about a local
    /// invalidation: `pull` removes what peers must no longer import
    /// (one record on eviction or a ladder strike, a page's on SMC or a
    /// governor blacklist, nothing but the generations on a flush) and
    /// returns how many shard generations it bumped.
    pub(crate) fn shared_notify(&mut self, pull: impl FnOnce(&Namespace, &mut u64) -> u64) {
        if let Some(bumps) = self.tenant.with(&mut self.stats, pull) {
            self.stats.shared_gen_bumps += bumps;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(eip: u32) -> ImageBlock {
        ImageBlock {
            eip,
            src_range: (eip, eip + 4),
            ..ImageBlock::default()
        }
    }

    #[test]
    fn publish_consult_roundtrip() {
        let ns = Namespace::new(7, 8);
        let mut c = 0;
        assert_eq!(ns.consult(0x40_0000, &mut c), Consult::Miss);
        assert!(ns.publish(rec(0x40_0000), &mut c));
        match ns.consult(0x40_0000, &mut c) {
            Consult::Hit(e) => assert_eq!(e.block.eip, 0x40_0000),
            other => panic!("expected hit, got {other:?}"),
        }
        assert_eq!(ns.unique_eips(), 1);
        assert_eq!(c, 0, "uncontended single-thread access");
    }

    #[test]
    fn invalidation_bumps_generation_and_rejects_neighbours() {
        let ns = Namespace::new(7, 1); // one shard: everything collides
        let mut c = 0;
        ns.publish(rec(0x40_0000), &mut c);
        ns.publish(rec(0x40_0100), &mut c);
        let g0 = ns.shard_gen(0x40_0000);
        assert!(ns.invalidate(0x40_0000, &mut c));
        assert_eq!(ns.shard_gen(0x40_0000), g0 + 1);
        // The invalidated EIP is gone; its same-shard neighbour is
        // conservatively stale until re-published.
        assert_eq!(ns.consult(0x40_0000, &mut c), Consult::Miss);
        assert_eq!(ns.consult(0x40_0100, &mut c), Consult::GenStale);
        assert!(ns.publish(rec(0x40_0100), &mut c));
        assert!(matches!(ns.consult(0x40_0100, &mut c), Consult::Hit(_)));
    }

    #[test]
    fn page_invalidation_and_denial() {
        let ns = Namespace::new(7, 8);
        let mut c = 0;
        ns.publish(rec(0x40_0000), &mut c);
        ns.publish(rec(0x40_0800), &mut c);
        ns.publish(rec(0x41_0000), &mut c); // different page
        assert!(ns.invalidate_page(0x400, &mut c) >= 1);
        assert_eq!(ns.consult(0x40_0000, &mut c), Consult::Miss);
        assert!(ns.consult(0x41_0000, &mut c) != Consult::Miss);
        ns.deny_page(0x410, &mut c);
        assert_eq!(ns.consult(0x41_0000, &mut c), Consult::Denied);
        assert!(
            !ns.publish(rec(0x41_0000), &mut c),
            "denied page refuses publish"
        );
    }

    #[test]
    fn a_straddling_record_belongs_to_both_pages() {
        let ns = Namespace::new(7, 8);
        let mut c = 0;
        let straddler = ImageBlock {
            eip: 0x40_0FF0,
            src_range: (0x40_0FF0, 0x40_1004),
            ..ImageBlock::default()
        };
        ns.publish(straddler.clone(), &mut c);
        ns.publish(rec(0x40_0100), &mut c);
        // A store to the second page takes the straddler, not its
        // neighbour on the first.
        assert!(ns.invalidate_page(0x401, &mut c) >= 1);
        assert_eq!(ns.consult(0x40_0FF0, &mut c), Consult::Miss);
        assert_ne!(ns.consult(0x40_0100, &mut c), Consult::Miss);
        assert!(ns.publish(straddler.clone(), &mut c));
        ns.deny_page(0x401, &mut c);
        assert!(
            !ns.publish(straddler.clone(), &mut c),
            "its second page is denied"
        );
        assert_ne!(ns.consult(0x40_0100, &mut c), Consult::Denied);
        // A publish that raced the denial: the record is refused on
        // consult all the same.
        let mut shard = ns.write_shard(ns.shard_index(straddler.eip), &mut c);
        let gen_tag = shard.gen;
        shard.entries.insert(
            straddler.eip,
            SharedEntry {
                block: straddler,
                gen_tag,
            },
        );
        drop(shard);
        assert_eq!(ns.consult(0x40_0FF0, &mut c), Consult::Denied);
    }

    #[test]
    fn profile_refresh_is_max_merge() {
        let ns = Namespace::new(7, 8);
        let mut c = 0;
        ns.publish(rec(0x40_0000), &mut c);
        assert!(ns.refresh_profile(0x40_0000, 100, (5, 7), (0x50_0000, 9), &mut c));
        assert!(ns.refresh_profile(0x40_0000, 40, (2, 11), (0x60_0000, 3), &mut c));
        match ns.consult(0x40_0000, &mut c) {
            Consult::Hit(e) => {
                assert_eq!(e.block.heat, 100);
                assert_eq!(e.block.edges, (5, 11));
                // The lower-hit IC hint must not displace the higher one.
                assert_eq!(e.block.ic_pred, 0x50_0000);
                assert_eq!(e.block.ic_hits, 9);
            }
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn namespaces_are_isolated() {
        let cache = SharedCache::new(8);
        let a = cache.tenant(1);
        let b = cache.tenant(2);
        assert_eq!(a.tenant, 0);
        assert_eq!(b.tenant, 1);
        let mut c = 0;
        a.ns.publish(rec(0x40_0000), &mut c);
        assert_eq!(b.ns.consult(0x40_0000, &mut c), Consult::Miss);
        assert_eq!(cache.namespaces(), 2);
        let a2 = cache.tenant(1);
        assert!(matches!(a2.ns.consult(0x40_0000, &mut c), Consult::Hit(_)));
    }
}
