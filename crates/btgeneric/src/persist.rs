//! Persistent translation cache: warm-start images and static
//! pre-translation.
//!
//! Every run of the engine recomputes the entire cold phase from
//! scratch, even though a fleet executing the *same* guest binary pays
//! the same translation bill over and over. This module amortizes that
//! bill across process lifetimes:
//!
//! * [`snapshot`] / [`encode`] serialize the validated cold-phase
//!   translations into a versioned **warm-start image** — on-demand
//!   from [`Engine::run`] when `Config::save_image` is set.
//! * [`decode`] / [`load`] rebuild the translation cache from an image
//!   before first dispatch (`Config::load_image`).
//! * [`pretranslate`] walks the guest binary's static CFG from the
//!   entry point and translates every reachable block ahead of the
//!   first dispatch (`Config::pretranslate`), merging with whatever the
//!   image already installed.
//!
//! # What is serialized — metadata, not machine code
//!
//! Cold generation is deterministic and position-dependent: the same
//! inputs at the same arena base always produce the same bundles, and
//! `Engine` already re-runs the generator at a new base when filling an
//! eviction hole ("same shape, new addresses"). The image therefore
//! stores only each block's *generation inputs* — guest EIP, stage
//! (V1/V2), FP speculation seed, learned misalignment overrides,
//! indirect-dispatch shape — plus the source span and its FNV-1a
//! checksum. Loading re-runs the generator at the current arena
//! position, which relocates arena offsets for free, re-derives exit
//! trampolines and chain links through the engine's ordinary chaining
//! (waiting exits and inbound links are the registry's), and re-inserts
//! lookup-table slots keyed by EIP. What is *charged* differs: an image
//! block costs the flat [`crate::cost::IMAGE_LOAD_CYCLES`] instead of
//! the per-instruction
//! cold-translation cost — that asymmetry is the warm-start speedup.
//!
//! Hot trace *bodies* are **not** serialized: their recovery maps are
//! deeply position- and profile-dependent. A hot block is saved as its
//! cold **base** block instead (the registry entry still carries the
//! cold generation inputs), so a warm process starts from warm cold
//! code and re-heats through the ordinary profile counters.
//!
//! Since format version 2 the *profile* itself rides along: each record
//! carries the block's heat (use counter), taken/fall-through edge
//! counts, and — when the block's indirect site had proven monomorphic
//! at save time — the inline-cache target hint with its hit count.
//! [`load`] writes the counters back into the freshly allocated profile
//! slots (`Stats::profile_heat_restored`) and, in a second pass once
//! every record has installed, re-trains inline caches whose predicted
//! target is itself a loaded block (`Stats::profile_ic_restored`). A
//! warm boot therefore resumes hot-phase promotion where the saved
//! process left off instead of re-profiling from zero — and a
//! multi-tenant warm boot re-heats every tenant at once. The hints are
//! validated by the same per-record checksums as the generation inputs;
//! a stale record drops its profile along with everything else.
//!
//! # Validation ladder — never die on a stale image
//!
//! Wholesale rejection (`Stats::image_rejects`): bad magic, unknown
//! version, corrupted header checksum, or a config/layout
//! [`fingerprint`] mismatch — an image produced by a different engine
//! version or an incompatible `Config` is discarded entirely.
//!
//! Per-record rejection (`Stats::image_blocks_rejected`): a record
//! whose own FNV trailer does not match (bit rot, truncation) is
//! skipped, and a record whose *source checksum* no longer matches the
//! guest bytes in memory (the binary changed since the image was saved)
//! is skipped — those EIPs simply fall back to ordinary on-demand
//! translation, riding the existing degradation ladder. A damaged image
//! can therefore never produce wrong execution, only a colder start.
//!
//! # Image format (version 4)
//!
//! All integers little-endian. Header, then `block_count` records:
//!
//! ```text
//! header (40 bytes):
//!   0  magic        8B  "IA32EL01"
//!   8  version      4B  = 4
//!   12 block_count  4B
//!   16 fingerprint  8B  config/layout fingerprint (see `fingerprint`)
//!   24 reserved     8B  = 0
//!   32 header_fnv   8B  FNV-1a over bytes 0..32
//! record (48 + 4*n_overrides + 8 bytes):
//!   0  eip          4B
//!   4  src_start    4B  guest source span [start, end)
//!   8  src_end      4B
//!   12 ia32_insts   4B
//!   16 src_fnv      8B  FNV-1a of the source bytes at save time
//!   24 flags        1B  bit0 stage2 (ColdV2), bit1 inline_fp,
//!                       bit2 indirect_plain, bit3 spec.mmx_mode
//!   25 spec_tos     1B
//!   26 spec_xmm     1B
//!   27 n_overrides  1B
//!   28 heat         4B  block use counter (saturated to u32)
//!   32 edge_taken   4B  taken edge counter (saturated)
//!   36 edge_fall    4B  fall-through edge counter (saturated)
//!   40 ic_pred      4B  monomorphic indirect-target hint (0 = none)
//!   44 ic_hits      4B  inline-cache hits backing the hint (saturated)
//!   48 overrides    4B each: idx u16, mode u8, gran u8
//!   .. record_fnv   8B  FNV-1a over this record's preceding bytes
//! ```
//!
//! Older-version images (v1: no profile fields; v2: profiles; v3: a
//! mined-idiom section between header and records, its count in bytes
//! 24..26) are rejected wholesale with [`ImageError::BadVersion`]; the
//! fingerprint also covers [`VERSION`], so even a hand-patched version
//! field cannot smuggle one through.

use crate::btos::BtOs;
use crate::cold::discover::discover;
use crate::cold::gen::SpecSeed;
use crate::engine::{src_checksum, BlockKind, Config, Engine, RecordSource, XlateOrigin};
use crate::layout;
use crate::templates::AccessMode;
use std::collections::{HashMap, HashSet};

/// Image format version written by [`encode`] and required by
/// [`decode`].
pub const VERSION: u32 = 4;

/// Size of the image header in bytes.
pub const HEADER_LEN: usize = 40;

/// Fixed-size prefix of a record, before the overrides array.
const RECORD_FIXED: usize = 48;

const MAGIC: [u8; 8] = *b"IA32EL01";

/// FNV-1a over a byte slice (same construction as the engine's source
/// and arena checksums).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Computes the config/layout fingerprint stored in an image header.
///
/// Covers the format [`VERSION`], the address-space layout constants,
/// and every `Config` knob that changes the *shape* of generated cold
/// code. Two runs whose fingerprints match will regenerate identical
/// blocks from the same record; anything else must reject the image
/// wholesale (loading it could install code generated under different
/// assumptions).
pub fn fingerprint(cfg: &Config) -> u64 {
    let mut bytes = Vec::with_capacity(128);
    bytes.extend_from_slice(&VERSION.to_le_bytes());
    for c in [
        layout::TC_BASE,
        layout::STUB_BASE,
        layout::LOOKUP_BASE,
        layout::SHADOW_BASE,
        layout::COUNTERS_BASE,
        layout::PROFILE_BASE,
    ] {
        bytes.extend_from_slice(&c.to_le_bytes());
    }
    bytes.extend_from_slice(&cfg.heat_threshold.to_le_bytes());
    for flag in [
        cfg.enable_hot,
        cfg.enable_flag_liveness,
        cfg.enable_fusion,
        cfg.enable_misalign_avoidance,
        cfg.enable_fp_spec,
    ] {
        bytes.push(flag as u8);
    }
    fnv64(&bytes)
}

/// One serialized cold block: the generation inputs needed to
/// deterministically rebuild it, plus the source span and checksum that
/// validate it against the guest binary at load time, plus (since
/// format version 2) the hot-phase profile hints that let a warm boot
/// re-heat without re-profiling.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ImageBlock {
    /// Guest entry EIP.
    pub eip: u32,
    /// Stage-2 block (`BlockKind::ColdV2`, misalignment-aware).
    pub stage2: bool,
    /// Inline FP checks variant (post-TagFix).
    pub inline_fp: bool,
    /// Indirect dispatch demoted to the plain probe (megamorphic).
    pub indirect_plain: bool,
    /// FP speculation seed the block was generated under.
    pub spec: SpecSeed,
    /// Learned per-access misalignment modes.
    pub overrides: Vec<(u16, AccessMode)>,
    /// Guest source span `[start, end)`.
    pub src_range: (u32, u32),
    /// FNV-1a of the source bytes at save time.
    pub src_fnv: u64,
    /// IA-32 instructions covered (informational).
    pub ia32_insts: u32,
    /// Block use counter at save time (heat; saturated to `u32` on
    /// the wire).
    pub heat: u64,
    /// Taken / fall-through edge counters at save time (saturated).
    pub edges: (u32, u32),
    /// Monomorphic indirect-target hint: the inline cache's predicted
    /// guest EIP, saved only when the site had proven monomorphic
    /// (`0` = no hint).
    pub ic_pred: u32,
    /// Inline-cache hit count backing `ic_pred` (saturated) — restored
    /// so the hot phase's devirtualization gate sees the earned
    /// confidence, not a cold counter.
    pub ic_hits: u32,
}

/// A decoded (or about-to-be-encoded) warm-start image.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Image {
    /// Config/layout fingerprint the image was produced under.
    pub fingerprint: u64,
    /// Serialized blocks, in save order.
    pub blocks: Vec<ImageBlock>,
}

/// Why an image was rejected wholesale (see [`decode`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ImageError {
    /// Shorter than a header, or header fields point past the end.
    Truncated,
    /// Magic mismatch — not a warm-start image.
    BadMagic,
    /// Unknown format version.
    BadVersion(u32),
    /// Header FNV trailer mismatch (corrupted header).
    BadHeaderChecksum,
    /// Image was produced under an incompatible config/layout.
    FingerprintMismatch {
        /// Fingerprint stored in the image.
        image: u64,
        /// Fingerprint of the loading engine's config.
        ours: u64,
    },
}

impl std::fmt::Display for ImageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImageError::Truncated => write!(f, "image truncated"),
            ImageError::BadMagic => write!(f, "bad image magic"),
            ImageError::BadVersion(v) => write!(f, "unknown image version {v}"),
            ImageError::BadHeaderChecksum => write!(f, "image header checksum mismatch"),
            ImageError::FingerprintMismatch { image, ours } => {
                write!(f, "config fingerprint mismatch ({image:#x} vs {ours:#x})")
            }
        }
    }
}

/// Result of [`load`]: how much of the image actually warmed the cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoadSummary {
    /// Blocks installed into the translation cache.
    pub loaded: u64,
    /// Records skipped (stale source checksum, corrupt record, no
    /// cache room, or already translated).
    pub rejected: u64,
    /// The image was rejected wholesale (header/fingerprint).
    pub wholesale_reject: bool,
}

fn mode_to_wire(mode: AccessMode) -> (u8, u8) {
    match mode {
        AccessMode::Fast => (0, 0),
        AccessMode::Probe => (1, 0),
        AccessMode::DetectAvoid => (2, 0),
        AccessMode::AvoidKnown { gran } => (3, gran),
    }
}

fn mode_from_wire(code: u8, gran: u8) -> Option<AccessMode> {
    match code {
        0 => Some(AccessMode::Fast),
        1 => Some(AccessMode::Probe),
        2 => Some(AccessMode::DetectAvoid),
        3 => Some(AccessMode::AvoidKnown { gran }),
        _ => None,
    }
}

/// Captures the engine's current translation cache as an [`Image`].
///
/// Only *validated, current* cold blocks are captured: evicted blocks,
/// superseded generations (the registry points elsewhere), hot traces
/// (not serializable — see the module docs), and blocks whose source
/// bytes no longer match their recorded checksum (pending SMC
/// invalidation) are all skipped.
pub fn snapshot(engine: &Engine) -> Image {
    let mut blocks = Vec::new();
    for b in engine.blocks() {
        if b.evicted {
            continue;
        }
        // Skip superseded generations: the registry must map this EIP
        // to this very entry.
        if engine.entry_of_existing(b.eip) != Some(b.entry) {
            continue;
        }
        // Skip blocks already stale against guest memory (a store hit
        // the page and invalidation hasn't caught up) — saving them
        // would just produce load-time rejects.
        if src_checksum(&engine.mem, b.src_range) != b.src_fnv {
            continue;
        }
        blocks.push(record_of(engine, b));
    }
    blocks.sort_unstable_by_key(|b| b.eip);
    Image {
        fingerprint: fingerprint(&engine.cfg),
        blocks,
    }
}

/// Builds the serialized record for one live block: its cold
/// generation inputs plus the current profile hints read out of the
/// engine's profile slots. Shared between [`snapshot`] and the shared
/// serving cache's publish path (`Engine::shared_publish`) — both emit
/// the exact same metadata, so a record imported from a peer tenant is
/// indistinguishable from one loaded from a warm-start image.
///
/// The caller is responsible for validity checks (not evicted, not
/// superseded, source checksum still current).
pub(crate) fn record_of(engine: &Engine, b: &crate::engine::BlockInfo) -> ImageBlock {
    let mut overrides: Vec<(u16, AccessMode)> =
        b.misalign_overrides.iter().map(|(&i, &m)| (i, m)).collect();
    overrides.sort_unstable_by_key(|&(i, _)| i);
    let heat = engine.mem.read(b.counter_addr, 8).unwrap_or(0);
    let taken = engine.mem.read(b.edge_counters.0, 8).unwrap_or(0);
    let fall = engine.mem.read(b.edge_counters.1, 8).unwrap_or(0);
    // The IC hint is only worth shipping when the site has proven
    // monomorphic — a rotating site's last-seen target would just
    // mistrain every importer.
    let pred = engine
        .mem
        .read(b.ic_slot, 8)
        .unwrap_or(layout::LOOKUP_EMPTY_KEY);
    let hits = engine.mem.read(b.ic_slot + 16, 8).unwrap_or(0);
    let (ic_pred, ic_hits) = if pred != layout::LOOKUP_EMPTY_KEY
        && pred != 0
        && crate::engine::site_is_monomorphic(hits, heat)
    {
        (pred as u32, hits.min(u32::MAX as u64) as u32)
    } else {
        (0, 0)
    };
    // A hot trace is serialized as its cold *base* block: the
    // BlockInfo still carries the cold generation inputs, and the
    // warm process re-heats from the regenerated cold code (hot
    // recovery maps themselves are not serializable — module docs).
    ImageBlock {
        eip: b.eip,
        stage2: b.kind == BlockKind::ColdV2,
        inline_fp: b.inline_fp,
        indirect_plain: b.indirect_plain,
        spec: b.spec,
        overrides,
        src_range: b.src_range,
        src_fnv: b.src_fnv,
        ia32_insts: b.ia32_insts as u32,
        heat,
        edges: (
            taken.min(u32::MAX as u64) as u32,
            fall.min(u32::MAX as u64) as u32,
        ),
        ic_pred,
        ic_hits,
    }
}

/// Serializes an [`Image`] into the version-4 wire format.
pub fn encode(image: &Image) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + image.blocks.len() * 64);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(image.blocks.len() as u32).to_le_bytes());
    out.extend_from_slice(&image.fingerprint.to_le_bytes());
    out.extend_from_slice(&[0u8; 8]);
    let h = fnv64(&out[0..32]);
    out.extend_from_slice(&h.to_le_bytes());
    for b in &image.blocks {
        let start = out.len();
        out.extend_from_slice(&b.eip.to_le_bytes());
        out.extend_from_slice(&b.src_range.0.to_le_bytes());
        out.extend_from_slice(&b.src_range.1.to_le_bytes());
        out.extend_from_slice(&b.ia32_insts.to_le_bytes());
        out.extend_from_slice(&b.src_fnv.to_le_bytes());
        let flags = (b.stage2 as u8)
            | ((b.inline_fp as u8) << 1)
            | ((b.indirect_plain as u8) << 2)
            | ((b.spec.mmx_mode as u8) << 3);
        out.push(flags);
        out.push(b.spec.tos);
        out.push(b.spec.xmm_fmt);
        out.push(b.overrides.len().min(255) as u8);
        out.extend_from_slice(&(b.heat.min(u32::MAX as u64) as u32).to_le_bytes());
        out.extend_from_slice(&b.edges.0.to_le_bytes());
        out.extend_from_slice(&b.edges.1.to_le_bytes());
        out.extend_from_slice(&b.ic_pred.to_le_bytes());
        out.extend_from_slice(&b.ic_hits.to_le_bytes());
        for &(idx, mode) in b.overrides.iter().take(255) {
            let (code, gran) = mode_to_wire(mode);
            out.extend_from_slice(&idx.to_le_bytes());
            out.push(code);
            out.push(gran);
        }
        let rh = fnv64(&out[start..]);
        out.extend_from_slice(&rh.to_le_bytes());
    }
    out
}

fn rd_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().unwrap())
}

fn rd_u64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().unwrap())
}

/// Parses and validates an image, returning the decoded [`Image`] and
/// the number of records rejected individually.
///
/// Header damage (magic, version, checksum, truncation below header
/// size) and a fingerprint mismatch against `expected_fingerprint`
/// reject the image wholesale with an [`ImageError`]. Damage *inside*
/// the record stream (truncated body, flipped record bytes) only drops
/// the affected records — parsing stops at the first malformed record
/// and everything already decoded is kept.
pub fn decode(bytes: &[u8], expected_fingerprint: u64) -> Result<(Image, u64), ImageError> {
    if bytes.len() < HEADER_LEN {
        return Err(ImageError::Truncated);
    }
    if bytes[0..8] != MAGIC {
        return Err(ImageError::BadMagic);
    }
    let version = rd_u32(bytes, 8);
    if version != VERSION {
        return Err(ImageError::BadVersion(version));
    }
    if rd_u64(bytes, 32) != fnv64(&bytes[0..32]) {
        return Err(ImageError::BadHeaderChecksum);
    }
    let fp = rd_u64(bytes, 16);
    if fp != expected_fingerprint {
        return Err(ImageError::FingerprintMismatch {
            image: fp,
            ours: expected_fingerprint,
        });
    }
    let block_count = rd_u32(bytes, 12) as u64;
    let mut image = Image {
        fingerprint: fp,
        blocks: Vec::new(),
    };
    let mut rejected = 0u64;
    let mut at = HEADER_LEN;
    for i in 0..block_count {
        // A record that doesn't fully fit (truncated body) ends the
        // stream; the remaining declared records are all rejects.
        if at + RECORD_FIXED > bytes.len() {
            rejected += block_count - i;
            break;
        }
        let n_overrides = bytes[at + 27] as usize;
        let len = RECORD_FIXED + n_overrides * 4;
        if at + len + 8 > bytes.len() {
            rejected += block_count - i;
            break;
        }
        if rd_u64(bytes, at + len) != fnv64(&bytes[at..at + len]) {
            // Bit rot inside one record: skip it, keep scanning — the
            // per-record trailer makes record boundaries trustworthy
            // even when contents aren't.
            rejected += 1;
            at += len + 8;
            continue;
        }
        let flags = bytes[at + 24];
        let mut overrides = Vec::with_capacity(n_overrides);
        let mut ok = true;
        for o in 0..n_overrides {
            let ob = at + RECORD_FIXED + o * 4;
            let idx = u16::from_le_bytes(bytes[ob..ob + 2].try_into().unwrap());
            match mode_from_wire(bytes[ob + 2], bytes[ob + 3]) {
                Some(m) => overrides.push((idx, m)),
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            image.blocks.push(ImageBlock {
                eip: rd_u32(bytes, at),
                stage2: flags & 1 != 0,
                inline_fp: flags & 2 != 0,
                indirect_plain: flags & 4 != 0,
                spec: SpecSeed {
                    tos: bytes[at + 25],
                    mmx_mode: flags & 8 != 0,
                    xmm_fmt: bytes[at + 26],
                },
                overrides,
                src_range: (rd_u32(bytes, at + 4), rd_u32(bytes, at + 8)),
                src_fnv: rd_u64(bytes, at + 16),
                ia32_insts: rd_u32(bytes, at + 12),
                heat: rd_u32(bytes, at + 28) as u64,
                edges: (rd_u32(bytes, at + 32), rd_u32(bytes, at + 36)),
                ic_pred: rd_u32(bytes, at + 40),
                ic_hits: rd_u32(bytes, at + 44),
            });
        } else {
            rejected += 1;
        }
        at += len + 8;
    }
    Ok((image, rejected))
}

/// Loads a warm-start image into the engine (called by [`Engine::run`]
/// during warm boot when `Config::load_image` is set).
///
/// Wholesale rejection bumps `Stats::image_rejects` and leaves the
/// cache untouched. The surviving records go through
/// `Engine::materialize`: each is validated against guest memory
/// before the block is regenerated wherever the arena has room; stale
/// or unmaterializable records bump `Stats::image_blocks_rejected`,
/// and records beyond the cache capacity bound are only counted in the
/// summary.
pub fn load(engine: &mut Engine, os: &mut dyn BtOs, bytes: &[u8]) -> LoadSummary {
    let fp = fingerprint(&engine.cfg);
    let (image, rejected) = match decode(bytes, fp) {
        Ok(r) => r,
        Err(_) => {
            engine.stats.image_rejects += 1;
            return LoadSummary {
                wholesale_reject: true,
                ..LoadSummary::default()
            };
        }
    };
    // Records the decoder already dropped (bit rot, truncation) count
    // as per-record rejects too: each is an extent that will fall back
    // to on-demand translation.
    engine.stats.image_blocks_rejected += rejected;
    let done = engine.materialize(os, &image.blocks, RecordSource::Image);
    LoadSummary {
        loaded: done.installed,
        rejected: rejected + done.rejected,
        wholesale_reject: false,
    }
}

/// What [`Engine::materialize`] made of a batch of records.
#[derive(Default)]
pub(crate) struct Materialized {
    /// Records installed.
    pub(crate) installed: u64,
    /// Records refused: stale against guest memory, unmaterializable,
    /// or beyond the cache's capacity.
    pub(crate) rejected: u64,
    /// Entry of the last record installed.
    pub(crate) entry: Option<u64>,
}

impl Engine {
    /// Materializes `records` from `source`, in order: each is
    /// validated against *this* engine's guest bytes (the true
    /// correctness gate — a namespace's generation tag is only the
    /// sharing-profitability gate, an image's fingerprint only says the
    /// configuration matches), regenerated under its saved seed, shape
    /// and misalignment modes, pre-seeded into the lookup table so
    /// indirect transfers into it hit immediately, and given its saved
    /// heat. Inline-cache hints are installed in a second pass, once
    /// every record of the batch has had its chance to install: the
    /// predicted target must itself resolve to a translated entry. A
    /// refused record falls back to on-demand translation when (if) its
    /// EIP is actually reached.
    ///
    /// The capacity bound only ever binds while an image loads (keep
    /// what fits rather than evict freshly loaded code — a warm start
    /// must never trigger the evictor against itself); a namespace
    /// import happens on a miss, after `entry_of` has made room.
    pub(crate) fn materialize(
        &mut self,
        os: &mut dyn BtOs,
        records: &[ImageBlock],
        source: RecordSource,
    ) -> Materialized {
        let mut done = Materialized::default();
        let mut hinted = Vec::new();
        for b in records {
            let cap = self.cfg.max_cache_bundles;
            if cap > 0 && self.machine.arena.live_len() >= cap {
                done.rejected += 1;
                continue;
            }
            if self.entry_of_existing(b.eip).is_some() {
                // Already translated (e.g. duplicate record); not a reject.
                continue;
            }
            let kind = match b.stage2 {
                true => BlockKind::ColdV2,
                false => BlockKind::ColdV1,
            };
            let origin = XlateOrigin::Record {
                spec: b.spec,
                plain: b.indirect_plain,
                source,
            };
            // Saved under different guest bytes than ours (the binary
            // changed, a peer runs another, or our copy has since been
            // rewritten): never materialize, whatever the tag says.
            let fresh = src_checksum(&self.mem, b.src_range) == b.src_fnv;
            let overrides = b.overrides.iter().copied().collect();
            let installed = fresh
                .then(|| self.translate(os, b.eip, kind, b.inline_fp, overrides, origin))
                .and_then(Result::ok);
            let Some(entry) = installed else {
                match source {
                    RecordSource::Image => self.stats.image_blocks_rejected += 1,
                    RecordSource::Namespace => self.stats.shared_stale_rejects += 1,
                }
                done.rejected += 1;
                continue;
            };
            done.installed += 1;
            done.entry = Some(entry);
            self.lookup_insert(b.eip, entry);
            if self.cfg.restore_profiles {
                if b.heat != 0 || b.edges != (0, 0) {
                    self.restore_profile(b.eip, b.heat, b.edges);
                }
                if b.ic_pred != 0 {
                    hinted.push(b);
                }
            }
        }
        for b in hinted {
            self.restore_ic_hint(b.eip, b.ic_pred, b.ic_hits);
        }
        done
    }

    /// Restores persisted profile heat into `eip`'s live profile slots
    /// (max-merge with whatever is already there), so a warm boot or a
    /// shared-namespace import resumes hot-phase promotion where the
    /// saved profile left off instead of re-profiling from zero.
    fn restore_profile(&mut self, eip: u32, heat: u64, edges: (u32, u32)) {
        let Some(b) = self.live_block(eip) else {
            return;
        };
        let (counter, ec) = (b.counter_addr, b.edge_counters);
        let cur = self.mem.read(counter, 8).unwrap_or(0);
        let _ = self.mem.write(counter, 8, cur.max(heat));
        let t = self.mem.read(ec.0, 8).unwrap_or(0);
        let _ = self.mem.write(ec.0, 8, t.max(edges.0 as u64));
        let f = self.mem.read(ec.1, 8).unwrap_or(0);
        let _ = self.mem.write(ec.1, 8, f.max(edges.1 as u64));
        self.stats.profile_heat_restored += 1;
    }

    /// Re-trains `eip`'s inline cache from a persisted monomorphic
    /// target hint, if the predicted EIP resolves to a translated
    /// entry. The hit count is restored too, so the hot phase's
    /// devirtualization gate sees the earned confidence instead of a
    /// cold counter.
    fn restore_ic_hint(&mut self, eip: u32, pred: u32, hits: u32) {
        let Some(target_entry) = self.entry_of_existing(pred) else {
            return;
        };
        let Some(b) = self.live_block(eip).filter(|b| !b.indirect_plain) else {
            return;
        };
        let slot = b.ic_slot;
        let cur_hits = self.mem.read(slot + 16, 8).unwrap_or(0);
        let _ = self.mem.write(slot, 8, pred as u64);
        let _ = self.mem.write(slot + 8, 8, target_entry);
        let _ = self.mem.write(slot + 16, 8, cur_hits.max(hits as u64));
        self.stats.profile_ic_restored += 1;
    }
}

/// Bound on the static pre-translation walk (entry blocks visited).
const PRETRANSLATE_CAP: usize = 4096;

/// Statically pre-translates the guest CFG reachable from `entry`
/// before first dispatch (called by [`Engine::run`] during warm boot
/// when `Config::pretranslate` is set). Returns the number of blocks
/// translated.
///
/// The walk reuses the cold phase's own discovery
/// ([`crate::cold::discover`]): each discovered region contributes its
/// block starts and static successors (direct jumps, both branch arms,
/// call targets and fall-throughs) to the worklist. Indirect targets
/// are unknown statically and are left to on-demand translation — this
/// is deliberately the paper's two-phase shape with the cold phase
/// front-loaded, not a whole-binary static translator. Blocks already
/// installed (typically by a warm-start image) are skipped, so the two
/// warm-boot sources merge cleanly.
pub fn pretranslate(engine: &mut Engine, os: &mut dyn BtOs, entry: u32) -> u64 {
    let mut seen: HashSet<u32> = HashSet::new();
    let mut work = vec![entry];
    let mut translated = 0u64;
    while let Some(eip) = work.pop() {
        if !seen.insert(eip) || seen.len() > PRETRANSLATE_CAP {
            continue;
        }
        if engine.cfg.max_cache_bundles > 0
            && engine.machine.arena.live_len() >= engine.cfg.max_cache_bundles
        {
            break;
        }
        let region = discover(&engine.mem, eip);
        for blk in &region.blocks {
            if blk.start != eip {
                work.push(blk.start);
            }
            for &s in blk.succs.iter() {
                work.push(s);
            }
        }
        if engine.entry_of_existing(eip).is_none()
            && engine
                .translate(
                    os,
                    eip,
                    BlockKind::ColdV1,
                    false,
                    HashMap::new(),
                    XlateOrigin::Pretranslate,
                )
                .is_ok()
        {
            translated += 1;
            if let Some(e) = engine.entry_of_existing(eip) {
                engine.lookup_insert(eip, e);
            }
        }
    }
    translated
}

/// Flips the stored source checksum of the `nth % count` record in an
/// encoded image, re-sealing the record's own FNV trailer so the record
/// still *parses* but fails source validation at load time (the
/// "stale extent" chaos case — distinguishable from plain bit rot,
/// which the record trailer would catch first). Returns `false` if the
/// image holds no intact records.
pub fn flip_extent_checksum(bytes: &mut [u8], nth: usize) -> bool {
    if bytes.len() < HEADER_LEN {
        return false;
    }
    let block_count = rd_u32(bytes, 12) as usize;
    if block_count == 0 {
        return false;
    }
    let target = nth % block_count;
    let mut at = HEADER_LEN;
    for i in 0..block_count {
        if at + RECORD_FIXED > bytes.len() {
            return false;
        }
        let len = RECORD_FIXED + bytes[at + 27] as usize * 4;
        if at + len + 8 > bytes.len() {
            return false;
        }
        if i == target {
            let fnv = rd_u64(bytes, at + 16) ^ 0xDEAD_BEEF_DEAD_BEEF;
            bytes[at + 16..at + 24].copy_from_slice(&fnv.to_le_bytes());
            let rh = fnv64(&bytes[at..at + len]);
            bytes[at + len..at + len + 8].copy_from_slice(&rh.to_le_bytes());
            return true;
        }
        at += len + 8;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_image() -> Image {
        Image {
            fingerprint: fingerprint(&Config::default()),
            blocks: vec![
                ImageBlock {
                    eip: 0x40_0000,
                    stage2: false,
                    inline_fp: false,
                    indirect_plain: false,
                    spec: SpecSeed::default(),
                    overrides: vec![],
                    src_range: (0x40_0000, 0x40_0010),
                    src_fnv: 0x1234_5678_9ABC_DEF0,
                    ia32_insts: 5,
                    heat: 0,
                    edges: (0, 0),
                    ic_pred: 0,
                    ic_hits: 0,
                },
                ImageBlock {
                    eip: 0x40_0010,
                    stage2: true,
                    inline_fp: true,
                    indirect_plain: true,
                    spec: SpecSeed {
                        tos: 3,
                        mmx_mode: true,
                        xmm_fmt: 1,
                    },
                    overrides: vec![
                        (2, AccessMode::AvoidKnown { gran: 4 }),
                        (7, AccessMode::Probe),
                    ],
                    src_range: (0x40_0010, 0x40_0030),
                    src_fnv: 0xFEED_FACE_CAFE_F00D,
                    ia32_insts: 9,
                    heat: 777,
                    edges: (512, 265),
                    ic_pred: 0x40_0000,
                    ic_hits: 600,
                },
            ],
        }
    }

    /// One batch of records through [`Engine::materialize`] from each
    /// source: the blocks, the arena and the trained profile cells come
    /// out the same, and only the counters that name the source differ.
    /// The first record's inline-cache hint names the second's EIP — a
    /// forward reference only the second pass can resolve — and the
    /// third is stale against guest memory.
    #[test]
    fn records_materialize_alike_from_an_image_and_from_a_namespace() {
        use crate::engine::tests::{loop_and_chain, NullOs};
        let (mut donor, _, _, chain) = loop_and_chain(4, Config::default());
        let mut records: Vec<ImageBlock> = chain[..3]
            .iter()
            .map(|&eip| {
                donor.entry_of(&mut NullOs, eip).expect("translates");
                record_of(&donor, donor.live_block(eip).expect("just translated"))
            })
            .collect();
        (records[0].heat, records[0].edges) = (5, (3, 2));
        (records[0].ic_pred, records[0].ic_hits) = (chain[1], 9);
        records[2].src_fnv ^= 1;

        let materialized = |source: RecordSource| {
            let (mut e, ..) = loop_and_chain(4, Config::default());
            let done = e.materialize(&mut NullOs, &records, source);
            assert_eq!((done.installed, done.rejected), (2, 1), "{source:?}");
            assert_eq!(done.entry, e.entry_of_existing(chain[1]));
            assert_eq!(e.entry_of_existing(chain[2]), None, "the stale record");
            assert_eq!(e.audit(), Ok(()), "{source:?}");
            e
        };
        let mut image = materialized(RecordSource::Image);
        let mut shared = materialized(RecordSource::Namespace);

        assert_eq!(
            format!("{:?}", image.blocks()),
            format!("{:?}", shared.blocks())
        );
        let bytes = |e: &Engine| {
            let arena = &e.machine.arena;
            (arena.len(), arena.checksum_range(arena.base(), arena.end()))
        };
        assert_eq!(bytes(&image), bytes(&shared));
        let first = image.live_block(chain[0]).expect("installed");
        let cells = |e: &Engine| {
            [
                first.counter_addr,
                first.ic_slot,
                first.ic_slot + 8,
                first.ic_slot + 16,
            ]
            .map(|addr| e.mem.read(addr, 8).unwrap())
        };
        let target = image.entry_of_existing(chain[1]).unwrap();
        assert_eq!(cells(&image), [5, chain[1] as u64, target, 9]);
        assert_eq!(cells(&shared), cells(&image));

        let moved = |s: &mut crate::stats::Stats| {
            let by_source = (
                (s.image_blocks_loaded, s.image_blocks_rejected),
                (s.shared_installs, s.shared_stale_rejects),
            );
            s.image_blocks_loaded = 0;
            s.image_blocks_rejected = 0;
            s.shared_installs = 0;
            s.shared_stale_rejects = 0;
            by_source
        };
        assert_eq!(moved(&mut image.stats), ((2, 1), (0, 0)));
        assert_eq!(moved(&mut shared.stats), ((0, 0), (2, 1)));
        assert_eq!(image.stats, shared.stats);
        assert_eq!(image.machine.cycles, shared.machine.cycles);
    }

    #[test]
    fn roundtrip_is_lossless() {
        let img = sample_image();
        let bytes = encode(&img);
        let (back, rejected) = decode(&bytes, img.fingerprint).unwrap();
        assert_eq!(rejected, 0);
        assert_eq!(back.blocks, img.blocks);
        assert_eq!(back.fingerprint, img.fingerprint);
    }

    #[test]
    fn header_damage_rejects_wholesale() {
        let img = sample_image();
        let mut bytes = encode(&img);
        bytes[3] ^= 0xFF;
        assert_eq!(decode(&bytes, img.fingerprint), Err(ImageError::BadMagic));
        let mut bytes = encode(&img);
        bytes[17] ^= 0xFF; // fingerprint byte — caught by the header FNV
        assert_eq!(
            decode(&bytes, img.fingerprint),
            Err(ImageError::BadHeaderChecksum)
        );
        let bytes = encode(&img);
        assert!(matches!(
            decode(&bytes, img.fingerprint ^ 1),
            Err(ImageError::FingerprintMismatch { .. })
        ));
        assert_eq!(
            decode(&bytes[..HEADER_LEN - 1], img.fingerprint),
            Err(ImageError::Truncated)
        );
    }

    #[test]
    fn record_damage_rejects_per_record() {
        let img = sample_image();
        let mut bytes = encode(&img);
        // Flip a byte inside the first record's payload: that record is
        // dropped, the second survives.
        bytes[HEADER_LEN + 1] ^= 0xFF;
        let (back, rejected) = decode(&bytes, img.fingerprint).unwrap();
        assert_eq!(rejected, 1);
        assert_eq!(back.blocks, vec![img.blocks[1].clone()]);
        // Truncated body: everything from the cut onwards is rejected.
        let bytes = encode(&img);
        let cut = &bytes[..bytes.len() - 4];
        let (back, rejected) = decode(cut, img.fingerprint).unwrap();
        assert_eq!(rejected, 1);
        assert_eq!(back.blocks.len(), 1);
    }

    #[test]
    fn flip_extent_checksum_keeps_record_parseable() {
        let img = sample_image();
        let mut bytes = encode(&img);
        assert!(flip_extent_checksum(&mut bytes, 1));
        let (back, rejected) = decode(&bytes, img.fingerprint).unwrap();
        assert_eq!(rejected, 0, "flipped record must still parse");
        assert_eq!(back.blocks.len(), 2);
        assert_ne!(back.blocks[1].src_fnv, img.blocks[1].src_fnv);
        assert_eq!(back.blocks[0].src_fnv, img.blocks[0].src_fnv);
    }

    #[test]
    fn fingerprint_tracks_codegen_knobs() {
        let a = Config::default();
        let mut b = Config::default();
        b.enable_fusion = !b.enable_fusion;
        assert_ne!(fingerprint(&a), fingerprint(&b));
        let mut c = Config::default();
        c.blacklist_backoff_cycles += 1; // timing-only knob: same code shape
        assert_eq!(fingerprint(&a), fingerprint(&c));
    }
}
