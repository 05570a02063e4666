//! Learned superinstruction templates: profile-mined idiom fusion
//! (ROADMAP item 4).
//!
//! The IA-32 EL paper wins much of its hot-phase speedup by
//! recognizing recurring IA-32 idioms and emitting fused IPF sequences
//! for them. This module generalizes that from hand-picked rules to
//! *learned* ones, after the learned-rules DBT line of work: it
//!
//! 1. **mines** recurring adjacent-instruction idioms from the per
//!    block profile counters (and, when lifecycle tracing is on, the
//!    tracer's [`crate::trace::ProfileTable`]), ranking idiom classes
//!    by dynamic frequency — compare+branch, mov+alu pairs and
//!    triples, same-destination ALU chains, push/push(+call) and
//!    push/pop sequences, and lea/mod-rm addressing idioms;
//! 2. **synthesizes** a fused template for each winner by composing
//!    the existing template emitters with the provably-dead
//!    intermediate writebacks elided (`templates::fused`);
//! 3. **validates** every synthesized template differentially against
//!    the interpreter oracle before it may fire: the template runs on
//!    a scratch IPF machine over a deterministic sparse bus, the same
//!    guest instructions run through [`ia32::interp::Interp`], and any
//!    divergence in registers, live EFLAGS, touched memory, or branch
//!    direction demotes the idiom to the unfused path (a blacklist,
//!    never a death);
//! 4. **installs** the surviving table in both phases — a peephole
//!    window in the cold generator and in hot trace construction —
//!    and serializes it into warm-start images (format v3) and the
//!    multi-tenant shared cache so co-tenants and warm boots fuse
//!    from the first dispatch.
//!
//! Everything is deterministic: mining iterates profiles in EIP
//! order, ranking breaks ties by idiom kind, validation inputs are
//! fixed vectors, and the simulated costs are flat constants charged
//! to the OVERHEAD region.

use crate::state::{self, cpu_to_machine, machine_to_cpu};
use crate::templates::{self, fused, AccessMode, AlignCache, EmitCtx, FpCtx, MisalignPlan, XmmCtx};
use ia32::cpu::Cpu;
use ia32::inst::{AluOp, Inst, Rm, RmI};
use ia32::mem::{GuestMem, Prot, PAGE_SIZE};
use ia32::regs::Gpr;
use ia32::{flags, Size};
use ipf::inst::{Op, Target};
use ipf::machine::{Bus, BusError, CodeArena, Machine, StopReason};
use ipf::regs::{Pr, R0};
use std::collections::HashMap;

/// Maximum same-destination ALU chain length the matcher will fuse.
pub const MAX_CHAIN: usize = 6;
/// Idiom instances below this dynamic weight are not worth a template.
pub const MIN_WEIGHT: u64 = 8;
/// Simulated mining cost per profiled block (OVERHEAD region).
pub const MINE_CYCLES_PER_BLOCK: u64 = 40;
/// Simulated differential-validation cost per mined idiom.
pub const VALIDATE_CYCLES_PER_IDIOM: u64 = 600;
/// Cold-translated block count that triggers the early mining pass.
pub const COLD_MINE_TRIGGER: u64 = 24;
/// Longest idiom the matcher window looks at (chain + branch slack).
const WINDOW: usize = MAX_CHAIN + 2;
/// Where the scratch validation arena lives.
const VALIDATE_ARENA_BASE: u64 = 0x5000_0000;
/// Sentinel branch target ending a validation run.
const VALIDATE_EXIT: u64 = 0x7FF0_0000;
/// Native-instruction budget for one validation run.
const VALIDATE_INST_CAP: u64 = 4096;

/// The idiom classes the miner recognizes. `PushPushCall` and `LeaMem`
/// are *mined-only*: they are reported in the ranking (the paper calls
/// them out) but no fused template is synthesized for them yet, so
/// [`IdiomKind::fuseable`] is false and they never fire.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
#[repr(u8)]
pub enum IdiomKind {
    /// Flag-setter + conditional branch (the canonical fusion; firing
    /// reuses the existing `emit_fused_cmp_jcc` template).
    CmpJcc = 0,
    /// `mov rd, rs ; alu rd ; jcc` — the mov absorbed into the fused
    /// compare+branch.
    MovAluJcc = 1,
    /// `mov rd, rs ; alu rd, src` — the mov's writeback elided.
    MovAlu = 2,
    /// Same-destination ALU chain with one writeback at the end.
    AluChain = 3,
    /// Two pushes sharing one ESP writeback.
    PushPush = 4,
    /// `push ; pop` store-forwarded, ESP untouched.
    PushPop = 5,
    /// `push ; push ; call` — recognized and ranked, not yet fused.
    PushPushCall = 6,
    /// `lea` feeding the next instruction's addressing — recognized
    /// and ranked, not yet fused.
    LeaMem = 7,
}

impl IdiomKind {
    /// All kinds, in discriminant order.
    pub const ALL: [IdiomKind; 8] = [
        IdiomKind::CmpJcc,
        IdiomKind::MovAluJcc,
        IdiomKind::MovAlu,
        IdiomKind::AluChain,
        IdiomKind::PushPush,
        IdiomKind::PushPop,
        IdiomKind::PushPushCall,
        IdiomKind::LeaMem,
    ];

    /// Stable display name (bench/figures output).
    pub fn name(self) -> &'static str {
        match self {
            IdiomKind::CmpJcc => "cmp+jcc",
            IdiomKind::MovAluJcc => "mov+alu+jcc",
            IdiomKind::MovAlu => "mov+alu",
            IdiomKind::AluChain => "alu-chain",
            IdiomKind::PushPush => "push+push",
            IdiomKind::PushPop => "push+pop",
            IdiomKind::PushPushCall => "push+push+call",
            IdiomKind::LeaMem => "lea+mem",
        }
    }

    /// Whether a fused template exists for this kind.
    pub fn fuseable(self) -> bool {
        !matches!(self, IdiomKind::PushPushCall | IdiomKind::LeaMem)
    }

    fn from_u8(b: u8) -> Option<IdiomKind> {
        IdiomKind::ALL.get(b as usize).copied()
    }
}

/// One mined idiom: its class, accumulated dynamic weight, and the
/// EIP of the heaviest concrete instance (the validation exemplar).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MinedIdiom {
    /// Idiom class.
    pub kind: IdiomKind,
    /// Dynamic weight: Σ over instances of the containing block's use
    /// count (plus tracer dispatch counts when tracing is on).
    pub weight: u64,
    /// Head EIP of the heaviest instance, re-decoded for validation.
    pub exemplar: u32,
}

/// Serialized size of one [`MinedIdiom`] (kind + weight + exemplar).
pub const IDIOM_WIRE_BYTES: usize = 13;

/// The mined idiom table: ranked idioms plus the per-kind enable mask
/// maintained by the differential validation gate.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct IdiomTable {
    idioms: Vec<MinedIdiom>,
    enabled: u16,
}

impl IdiomTable {
    /// Builds a table from mined idioms: sorted by weight descending
    /// (kind discriminant breaks ties, so ranking is deterministic),
    /// everything initially enabled.
    pub fn new(mut idioms: Vec<MinedIdiom>) -> IdiomTable {
        idioms.sort_by(|a, b| {
            b.weight
                .cmp(&a.weight)
                .then((a.kind as u8).cmp(&(b.kind as u8)))
        });
        let mut enabled = 0u16;
        for i in &idioms {
            enabled |= 1 << i.kind as u8;
        }
        IdiomTable { idioms, enabled }
    }

    /// Ranked idioms, heaviest first.
    pub fn idioms(&self) -> &[MinedIdiom] {
        &self.idioms
    }

    /// Number of mined idioms (enabled or not).
    pub fn len(&self) -> usize {
        self.idioms.len()
    }

    /// True when nothing was mined.
    pub fn is_empty(&self) -> bool {
        self.idioms.is_empty()
    }

    /// Number of idioms that passed validation and may fire.
    pub fn enabled_count(&self) -> usize {
        self.idioms
            .iter()
            .filter(|i| self.enabled & (1 << i.kind as u8) != 0)
            .count()
    }

    /// Whether templates of `kind` may fire: mined, fuseable, and not
    /// blacklisted by validation.
    pub fn active(&self, kind: IdiomKind) -> bool {
        kind.fuseable() && self.enabled & (1 << kind as u8) != 0
    }

    /// Demotes `kind` to the unfused path (validation failure).
    pub fn disable(&mut self, kind: IdiomKind) {
        self.enabled &= !(1 << kind as u8);
    }

    /// Whether `kind` was ever mined into this table — enabled or
    /// demoted. A demoted kind still "counts": the merge pass must not
    /// re-validate (and accidentally re-enable) what the gate rejected.
    pub fn contains(&self, kind: IdiomKind) -> bool {
        self.idioms.iter().any(|i| i.kind == kind)
    }

    /// Inserts a newly mined idiom (enabled), keeping the ranking
    /// order. Used by the second mining pass to add kinds the early
    /// cold-phase pass had not yet observed.
    pub fn insert(&mut self, idiom: MinedIdiom) {
        debug_assert!(!self.contains(idiom.kind), "insert of a mined kind");
        self.idioms.push(idiom);
        self.idioms.sort_by(|a, b| {
            b.weight
                .cmp(&a.weight)
                .then((a.kind as u8).cmp(&(b.kind as u8)))
        });
        self.enabled |= 1 << idiom.kind as u8;
    }

    /// Wire format: `[kind u8][weight u64 le][exemplar u32 le]` per
    /// idiom, enabled idioms only (a reloaded table re-enables what it
    /// carries and nothing else).
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.idioms.len() * IDIOM_WIRE_BYTES);
        for i in &self.idioms {
            if self.enabled & (1 << i.kind as u8) == 0 {
                continue;
            }
            out.push(i.kind as u8);
            out.extend_from_slice(&i.weight.to_le_bytes());
            out.extend_from_slice(&i.exemplar.to_le_bytes());
        }
        out
    }

    /// Parses [`IdiomTable::serialize`] output. `None` on any malformed
    /// byte (the caller degrades to mining from scratch).
    pub fn deserialize(bytes: &[u8]) -> Option<IdiomTable> {
        if !bytes.len().is_multiple_of(IDIOM_WIRE_BYTES) {
            return None;
        }
        let mut idioms = Vec::with_capacity(bytes.len() / IDIOM_WIRE_BYTES);
        for chunk in bytes.chunks_exact(IDIOM_WIRE_BYTES) {
            let kind = IdiomKind::from_u8(chunk[0])?;
            let weight = u64::from_le_bytes(chunk[1..9].try_into().unwrap());
            let exemplar = u32::from_le_bytes(chunk[9..13].try_into().unwrap());
            idioms.push(MinedIdiom {
                kind,
                weight,
                exemplar,
            });
        }
        Some(IdiomTable::new(idioms))
    }
}

/// Per-engine superinstruction state, living in the translation cache
/// (it describes the translations, so it is shareable like them).
#[derive(Default, Debug)]
pub struct SuperinstState {
    /// The active idiom table, once mined or installed.
    pub table: Option<IdiomTable>,
    /// The hot-session mining pass ran (or was skipped because a table
    /// arrived from a warm-start image or shared namespace).
    pub mined: bool,
    /// The early cold-phase mining pass ran. Most cold translation
    /// happens before the first hot session, so waiting for it would
    /// leave nearly all cold code unfused; the early pass (triggered by
    /// translated-block count) catches that mass, and the hot pass
    /// merges in whatever kinds the early profiles had not surfaced.
    pub cold_mined: bool,
    /// The table was installed from a persisted image or a co-tenant
    /// rather than mined locally.
    pub imported: bool,
}

// ---------------------------------------------------------------------
// Matching
// ---------------------------------------------------------------------

/// `mov rd, rs` between distinct 32-bit registers.
fn as_mov_rr(inst: &Inst) -> Option<(Gpr, Gpr)> {
    if let Inst::Mov {
        size: Size::D,
        dst: Rm::Reg(d),
        src: RmI::Reg(s),
    } = inst
    {
        if d.num() != s.num() {
            return Some((*d, *s));
        }
    }
    None
}

/// A 32-bit register-destination ALU with a register/immediate source
/// and no carry input: a chain member / absorbable pair middle.
fn as_chain_alu(inst: &Inst) -> Option<(AluOp, Gpr, RmI)> {
    if let Inst::Alu {
        op,
        size: Size::D,
        dst: Rm::Reg(d),
        src: src @ (RmI::Reg(_) | RmI::Imm(_)),
    } = inst
    {
        if fused::chainable(*op) {
            return Some((*op, *d, *src));
        }
    }
    None
}

/// The middle of a `MovAluJcc` triple writing `rd`: the `try_fuse`
/// compatible result-condition ALUs plus inc/dec.
fn as_triple_alu(inst: &Inst, rd: Gpr) -> bool {
    match inst {
        Inst::IncDec {
            size: Size::D,
            dst: Rm::Reg(d),
            ..
        } => d.num() == rd.num(),
        Inst::Alu {
            op: AluOp::Sub | AluOp::And | AluOp::Or | AluOp::Xor,
            size: Size::D,
            dst: Rm::Reg(d),
            src: RmI::Reg(_) | RmI::Imm(_),
        } => d.num() == rd.num(),
        _ => false,
    }
}

/// `push reg/imm` (the simple forms the fused stack idioms accept).
fn as_push_simple(inst: &Inst) -> Option<RmI> {
    if let Inst::Push {
        src: src @ (RmI::Reg(_) | RmI::Imm(_)),
    } = inst
    {
        return Some(*src);
    }
    None
}

/// `pop reg` with a non-ESP destination.
fn as_pop_reg(inst: &Inst) -> Option<Gpr> {
    if let Inst::Pop { dst: Rm::Reg(r) } = inst {
        if r.num() != 4 {
            return Some(*r);
        }
    }
    None
}

/// Whether `flag_setter` + `jcc cond` is fusable by the existing
/// `emit_fused_cmp_jcc` template (mirrors `int::try_fuse`'s arms).
fn cmp_jcc_fusable(flag_setter: &Inst, cond: ia32::Cond) -> bool {
    // Memory-operand flag setters are excluded: the validation harness
    // runs exemplars on synthetic entry registers, so a memory form
    // could take a spurious alignment fault and wrongly demote the
    // whole kind. The baseline `enable_fusion` path still fuses them.
    if flag_setter.mem_operands().is_some() {
        return false;
    }
    match flag_setter {
        Inst::Alu { op: AluOp::Cmp, .. } => fused::cmp_cond_fusable(cond),
        Inst::Test { .. } => fused::result_cond_fusable(cond),
        Inst::IncDec { .. } => {
            fused::result_cond_fusable(cond) && cond.flags_read() & flags::CF == 0
        }
        Inst::Alu {
            op: AluOp::Sub | AluOp::And | AluOp::Or | AluOp::Xor,
            ..
        } => fused::result_cond_fusable(cond),
        _ => false,
    }
}

/// Strict adjacency: `b` starts exactly where `a` ends.
fn adj(a: &(u32, Inst, u8), b: &(u32, Inst, u8)) -> bool {
    b.0 == a.0.wrapping_add(a.2 as u32)
}

/// Classifies the idiom starting at `insts[i]` for the miner (no
/// liveness or table constraints). Returns the kind and the number of
/// instructions covered.
pub fn classify(insts: &[(u32, Inst, u8)], i: usize) -> Option<(IdiomKind, usize)> {
    match_with(insts, i, &|_| true, None)
}

/// Classifies + gates the idiom starting at `insts[i]` for a peephole:
/// only `table`-active kinds match, and `live_after(j)` (EFLAGS live
/// after instruction index `j`) enforces the dead-intermediate rules.
pub fn match_at(
    table: &IdiomTable,
    insts: &[(u32, Inst, u8)],
    i: usize,
    live_after: &mut dyn FnMut(usize) -> u32,
) -> Option<(IdiomKind, usize)> {
    match_with(insts, i, &|k| table.active(k), Some(live_after))
}

fn match_with(
    insts: &[(u32, Inst, u8)],
    i: usize,
    active: &dyn Fn(IdiomKind) -> bool,
    mut live_after: Option<&mut dyn FnMut(usize) -> u32>,
) -> Option<(IdiomKind, usize)> {
    let cur = insts.get(i)?;
    // mov rd, rs; …
    if let Some((rd, _rs)) = as_mov_rr(&cur.1) {
        let next = insts.get(i + 1).filter(|n| adj(cur, n))?;
        // … alu rd ; jcc → the triple (checked first: a pair match
        // here would steal the flag setter from the terminal fusion).
        if as_triple_alu(&next.1, rd) {
            if let Some(third) = insts.get(i + 2).filter(|t| adj(next, t)) {
                if let Inst::Jcc { cond, .. } = third.1 {
                    if active(IdiomKind::MovAluJcc)
                        && fused::result_cond_fusable(cond)
                        && cond.flags_read() & flags::CF == 0
                        && cmp_jcc_fusable(&next.1, cond)
                    {
                        return Some((IdiomKind::MovAluJcc, 3));
                    }
                    // The jcc consumes the alu's flags: leave the pair
                    // alone so the plain cmp+jcc fusion still gets it.
                    if cmp_jcc_fusable(&next.1, cond) {
                        return None;
                    }
                }
            }
        }
        // … alu rd, src → the absorbable pair.
        if let Some((_, d, _)) = as_chain_alu(&next.1) {
            if d.num() == rd.num() && active(IdiomKind::MovAlu) {
                return Some((IdiomKind::MovAlu, 2));
            }
        }
        return None;
    }
    // flag-setter ; jcc → cmp+jcc (existing template; mined so firings
    // count and so the class appears in the ranking).
    if let Some(next) = insts.get(i + 1).filter(|n| adj(cur, n)) {
        if let Inst::Jcc { cond, .. } = next.1 {
            if cmp_jcc_fusable(&cur.1, cond) && active(IdiomKind::CmpJcc) {
                return Some((IdiomKind::CmpJcc, 2));
            }
        }
    }
    // alu rd ; alu rd ; … → same-destination chain.
    if let Some((_, rd, _)) = as_chain_alu(&cur.1) {
        let mut n = 1;
        while n < MAX_CHAIN {
            let Some(next) = insts.get(i + n).filter(|x| adj(&insts[i + n - 1], x)) else {
                break;
            };
            match as_chain_alu(&next.1) {
                Some((_, d, _)) if d.num() == rd.num() => n += 1,
                _ => break,
            }
        }
        // Do not consume a flag setter whose flags feed a following
        // fused branch — shrink the chain to end before it.
        if let Some(after) = insts.get(i + n).filter(|x| adj(&insts[i + n - 1], x)) {
            if let Inst::Jcc { cond, .. } = after.1 {
                if cmp_jcc_fusable(&insts[i + n - 1].1, cond) {
                    n -= 1;
                }
            }
        }
        if n >= 2 && active(IdiomKind::AluChain) {
            // Every non-final member's flags must be dead: the chain
            // carries untruncated intermediates that cannot feed the
            // flag sequences.
            if let Some(live) = live_after.as_mut() {
                for (j, inst) in insts.iter().enumerate().take(i + n - 1).skip(i) {
                    if live(j) & inst.1.flags_written_maybe() != 0 {
                        return None;
                    }
                }
            }
            return Some((IdiomKind::AluChain, n));
        }
        return None;
    }
    // push …
    if let Some(_s1) = as_push_simple(&cur.1) {
        let next = insts.get(i + 1).filter(|n| adj(cur, n))?;
        if as_pop_reg(&next.1).is_some() && active(IdiomKind::PushPop) {
            return Some((IdiomKind::PushPop, 2));
        }
        if let Some(s2) = as_push_simple(&next.1) {
            // The second push's source must not be ESP: it would read
            // the already-decremented value.
            if matches!(s2, RmI::Reg(r) if r.num() == 4) {
                return None;
            }
            if let Some(third) = insts.get(i + 2).filter(|t| adj(next, t)) {
                if matches!(third.1, Inst::Call { .. }) && active(IdiomKind::PushPushCall) {
                    return Some((IdiomKind::PushPushCall, 3));
                }
            }
            if active(IdiomKind::PushPush) {
                return Some((IdiomKind::PushPush, 2));
            }
        }
        return None;
    }
    // lea rd, [..] ; <mem op based on rd> → addressing idiom (ranked
    // only).
    if let Inst::Lea { dst, .. } = cur.1 {
        let next = insts.get(i + 1).filter(|n| adj(cur, n))?;
        if let Some(addr) = next.1.mem_operands() {
            if addr.base.map(|b| b.num()) == Some(dst.num()) && active(IdiomKind::LeaMem) {
                return Some((IdiomKind::LeaMem, 2));
            }
        }
    }
    None
}

// ---------------------------------------------------------------------
// Mining
// ---------------------------------------------------------------------

/// Decodes a block for mining: straight-line decode from `eip` until
/// a block terminator (included, mirroring cold discovery's
/// `DiscBlock`), decode failure, or a generous instruction cap.
pub fn decode_block(mem: &GuestMem, eip: u32) -> Vec<(u32, Inst, u8)> {
    let mut insts = Vec::new();
    let mut ip = eip;
    for _ in 0..64 {
        let Some(bytes) = (1..=16usize)
            .rev()
            .find_map(|n| mem.fetch(ip as u64, n).ok())
        else {
            break;
        };
        let Ok((inst, len)) = ia32::decode::decode(&bytes, ip) else {
            break;
        };
        let ends = inst.ends_block();
        insts.push((ip, inst, len as u8));
        if ends {
            break;
        }
        ip = ip.wrapping_add(len as u32);
    }
    insts
}

/// One profiled block: entry EIP, dynamic weight (use counter), and
/// the decoded instructions.
#[derive(Clone, Debug)]
pub struct BlockSample {
    /// Block entry EIP.
    pub eip: u32,
    /// Dynamic weight (block use counter + tracer dispatches).
    pub weight: u64,
    /// Decoded instructions `(ip, inst, len)`.
    pub insts: Vec<(u32, Inst, u8)>,
}

/// Mines the idiom table from profiled blocks. Deterministic: samples
/// are scanned in the order given (the engine passes EIP order), the
/// heaviest instance of each kind becomes its exemplar (EIP breaks
/// ties), and ranking is by total weight with the kind discriminant as
/// tiebreak.
pub fn mine(samples: &[BlockSample]) -> IdiomTable {
    struct Acc {
        weight: u64,
        exemplar: u32,
        exemplar_weight: u64,
    }
    let mut acc: HashMap<IdiomKind, Acc> = HashMap::new();
    for s in samples {
        let mut i = 0;
        while i < s.insts.len() {
            match classify(&s.insts, i) {
                Some((kind, len)) => {
                    let head = s.insts[i].0;
                    let a = acc.entry(kind).or_insert(Acc {
                        weight: 0,
                        exemplar: head,
                        exemplar_weight: 0,
                    });
                    a.weight += s.weight;
                    if s.weight > a.exemplar_weight
                        || (s.weight == a.exemplar_weight && head < a.exemplar)
                    {
                        a.exemplar = head;
                        a.exemplar_weight = s.weight;
                    }
                    i += len;
                }
                None => i += 1,
            }
        }
    }
    let idioms = IdiomKind::ALL
        .iter()
        .filter_map(|&k| {
            let a = acc.get(&k)?;
            if a.weight < MIN_WEIGHT {
                return None;
            }
            Some(MinedIdiom {
                kind: k,
                weight: a.weight,
                exemplar: a.exemplar,
            })
        })
        .collect();
    IdiomTable::new(idioms)
}

// ---------------------------------------------------------------------
// Differential validation
// ---------------------------------------------------------------------

/// Deterministic fill byte for unwritten validation memory; the oracle
/// side pre-fills its pages with the same pattern.
fn fill(addr: u64) -> u8 {
    (addr as u8) ^ ((addr >> 8) as u8).wrapping_mul(0x9D) ^ 0x5A
}

/// A byte-granular bus accepting every address: unwritten bytes read
/// as the deterministic fill pattern, and every touched address is
/// recorded for the memory comparison.
struct SparseBus {
    written: HashMap<u64, u8>,
    touched: Vec<u64>,
}

impl SparseBus {
    fn new() -> SparseBus {
        SparseBus {
            written: HashMap::new(),
            touched: Vec::new(),
        }
    }

    fn byte(&self, addr: u64) -> u8 {
        self.written
            .get(&addr)
            .copied()
            .unwrap_or_else(|| fill(addr))
    }
}

impl Bus for SparseBus {
    fn read(&mut self, addr: u64, size: u32) -> Result<u64, BusError> {
        let mut v = 0u64;
        for k in 0..size as u64 {
            self.touched.push(addr + k);
            v |= (self.byte(addr + k) as u64) << (8 * k);
        }
        Ok(v)
    }

    fn write(&mut self, addr: u64, size: u32, val: u64) -> Result<(), BusError> {
        for k in 0..size as u64 {
            self.touched.push(addr + k);
            self.written.insert(addr + k, (val >> (8 * k)) as u8);
        }
        Ok(())
    }
}

/// Entry-state vectors for validation: all values 4-aligned (the
/// machine faults on misaligned accesses), far from typical guest code
/// pages, with ESI held at a canary value the chaos test relies on.
/// The first vector sets CF|ZF on entry, the second SF — stale-flag
/// leakage shows up in the live-flags leg.
const ENTRY_VECTORS: [([u32; 8], u32); 2] = [
    (
        [
            0x0030_0000,
            0x0030_0040,
            0x0030_0080,
            0x0030_00C0,
            0x0030_0100, // ESP
            0x0030_0140,
            0x0034_F00C, // ESI canary
            0x0030_01C0,
        ],
        flags::RESERVED_ONES | flags::CF | flags::ZF,
    ),
    (
        [
            0x0030_0040,
            0x0030_0040,
            0,
            0xFFFF_FFFC,
            0x0030_0100, // ESP
            8,
            0x0034_F00C, // ESI canary
            0x7FFF_FFFC,
        ],
        flags::RESERVED_ONES | flags::SF,
    ),
];

/// What the chaos `TemplateSynth` fault injects: the corruption applied
/// to a synthesized template's emitted code before validation runs.
pub fn corrupt_template(arena: &mut CodeArena, addr: u64) {
    // Clobber the first micro-op with a write that zeroes ESI — the
    // canary register the entry vectors pin — so the corrupted
    // template provably diverges from the oracle.
    arena.patch_slot(
        addr,
        0,
        Op::Zxt {
            d: state::guest_gpr(6),
            a: R0,
            size: 4,
        },
    );
}

/// Outcome of emitting a fused idiom template.
pub(crate) enum FusedEmit {
    /// Straight-line idiom emitted; execution falls through.
    Plain,
    /// Branch idiom emitted; the predicate is true when taken.
    Branch(Pr),
    /// The concrete instructions don't fit the template after all; the
    /// caller falls back to the unfused path.
    Refused,
}

/// Emits the fused template for `kind` over `insts` (exactly the
/// idiom's instructions, head first). `ctx.ip` must be the idiom's
/// head IP and `ctx.live_flags` the EFLAGS liveness *after the idiom's
/// last instruction* — the per-kind writeback masks are derived here.
/// This single dispatch is shared by the cold peephole, the hot trace
/// peephole, and the differential validator, so what gets validated is
/// exactly what fires.
pub(crate) fn emit_idiom(
    sink: &mut templates::Sink,
    ctx: &mut EmitCtx<'_>,
    kind: IdiomKind,
    insts: &[(u32, Inst, u8)],
) -> FusedEmit {
    let n = insts.len();
    let live = ctx.live_flags;
    match kind {
        IdiomKind::MovAlu => {
            let (Some((rd, rs)), Some((op, _, src))) =
                (as_mov_rr(&insts[0].1), as_chain_alu(&insts[1].1))
            else {
                return FusedEmit::Refused;
            };
            let l = live & insts[1].1.flags_written_maybe();
            fused::emit_mov_alu(sink, ctx, rd, rs, op, &src, l);
            FusedEmit::Plain
        }
        IdiomKind::MovAluJcc => {
            let Some((rd, rs)) = as_mov_rr(&insts[0].1) else {
                return FusedEmit::Refused;
            };
            let Inst::Jcc { cond, .. } = insts[2].1 else {
                return FusedEmit::Refused;
            };
            let l = live & insts[1].1.flags_written();
            match fused::emit_mov_alu_jcc(sink, ctx, rd, rs, &insts[1].1, cond, l) {
                Some(p) => FusedEmit::Branch(p),
                None => FusedEmit::Refused,
            }
        }
        IdiomKind::CmpJcc => {
            let Inst::Jcc { cond, .. } = insts[1].1 else {
                return FusedEmit::Refused;
            };
            match templates::emit_fused_cmp_jcc(sink, &insts[0].1, cond, ctx) {
                Some(p) => FusedEmit::Branch(p),
                None => FusedEmit::Refused,
            }
        }
        IdiomKind::AluChain => {
            let members: Vec<(AluOp, RmI)> = insts
                .iter()
                .filter_map(|x| as_chain_alu(&x.1).map(|(op, _, src)| (op, src)))
                .collect();
            if members.len() != n {
                return FusedEmit::Refused;
            }
            let Some((_, rd, _)) = as_chain_alu(&insts[0].1) else {
                return FusedEmit::Refused;
            };
            let l = live & insts[n - 1].1.flags_written_maybe();
            fused::emit_alu_chain(sink, ctx, rd, &members, l);
            FusedEmit::Plain
        }
        IdiomKind::PushPush => {
            let (Some(s1), Some(s2)) = (as_push_simple(&insts[0].1), as_push_simple(&insts[1].1))
            else {
                return FusedEmit::Refused;
            };
            fused::emit_push_push(sink, ctx, &s1, &s2);
            FusedEmit::Plain
        }
        IdiomKind::PushPop => {
            let (Some(src), Some(rd)) = (as_push_simple(&insts[0].1), as_pop_reg(&insts[1].1))
            else {
                return FusedEmit::Refused;
            };
            fused::emit_push_pop(sink, ctx, &src, rd);
            FusedEmit::Plain
        }
        IdiomKind::PushPushCall | IdiomKind::LeaMem => FusedEmit::Refused,
    }
}

/// Differentially validates one mined idiom's synthesized template
/// against the interpreter oracle.
///
/// The exemplar instructions are re-decoded from guest memory, the
/// fused template is emitted exactly as the peepholes would emit it,
/// lowered, assembled and run on a scratch machine over a sparse bus;
/// the same instructions run through [`ia32::interp::Interp`] on a
/// scratch [`GuestMem`]. Registers, live EFLAGS, every machine-touched
/// memory byte, and (for branch idioms) the taken decision must agree
/// on two entry vectors × two liveness legs. Any fault, decode
/// failure, or divergence returns `false` — the caller demotes the
/// idiom, it never dies.
///
/// `corrupt` arms the chaos `TemplateSynth` injection: the assembled
/// template is corrupted via [`corrupt_template`] before each run.
pub fn validate(mem: &GuestMem, timing: ipf::Timing, idiom: &MinedIdiom, corrupt: bool) -> bool {
    // Re-decode the exemplar window.
    let mut insts: Vec<(u32, Inst, u8)> = Vec::new();
    let mut ip = idiom.exemplar;
    for _ in 0..WINDOW {
        // Near a page end a full 16-byte fetch can fail even though the
        // remaining instructions fit; fall back to shorter windows, and
        // stop (rather than refuse) once decode runs dry — only the
        // idiom-length prefix matters below.
        let Some(bytes) = (1..=16usize)
            .rev()
            .find_map(|n| mem.fetch(ip as u64, n).ok())
        else {
            break;
        };
        let Ok((inst, len)) = ia32::decode::decode(&bytes, ip) else {
            break;
        };
        insts.push((ip, inst, len as u8));
        ip = ip.wrapping_add(len as u32);
    }
    // The exemplar must still classify as the mined kind (guest code
    // may have changed since mining).
    let Some((kind, len)) = classify(&insts, 0) else {
        return false;
    };
    if kind != idiom.kind || !kind.fuseable() {
        return false;
    }
    let head = insts[0].0;
    let total_len: u32 = insts[..len].iter().map(|x| x.2 as u32).sum();
    let end_ip = head.wrapping_add(total_len);
    let Ok(code_bytes) = mem.fetch(head as u64, total_len as usize) else {
        return false;
    };
    let code_page = head as u64 & !(PAGE_SIZE - 1);
    let code_page_end = (end_ip as u64 - 1) & !(PAGE_SIZE - 1);

    for (gprs, eflags) in ENTRY_VECTORS {
        for live in [flags::STATUS, 0u32] {
            // --- Emit the fused template as the peepholes would. ---
            let mut sink = templates::Sink::new();
            sink.set_ip(head);
            let mut fp = FpCtx::new(0, false);
            let mut xmm = XmmCtx::new(0);
            let misalign = MisalignPlan::uniform(AccessMode::Fast, 0);
            let mut align = AlignCache::default();
            let mut ctx = EmitCtx {
                ip: head,
                next_ip: end_ip,
                live_flags: live,
                fp: &mut fp,
                xmm: &mut xmm,
                misalign: &misalign,
                align: &mut align,
            };
            let fe = emit_idiom(&mut sink, &mut ctx, kind, &insts[..len]);
            let pred = match fe {
                FusedEmit::Plain => None,
                FusedEmit::Branch(p) => Some(p),
                FusedEmit::Refused => return false,
            };
            let branch_idiom = pred.is_some();
            // Materialize the branch predicate so it can be compared.
            if let Some(p) = pred {
                sink.mov_imm(state::GR_PAYLOAD0, 0);
                sink.emit_pred(
                    p,
                    Op::AddImm {
                        d: state::GR_PAYLOAD0,
                        imm: 1,
                        a: R0,
                    },
                );
            }
            sink.emit(Op::Br {
                target: Target::Abs(VALIDATE_EXIT),
            });

            // --- Lower, assemble, (maybe corrupt), run. ---
            let mut cb = ipf::asm::CodeBuilder::new();
            if crate::cold::lower::lower(&sink, &mut cb).is_err() {
                return false;
            }
            let (bundles, _) = cb.assemble(VALIDATE_ARENA_BASE);
            let mut arena = CodeArena::new(VALIDATE_ARENA_BASE);
            let addr = arena.append(bundles, 0);
            if corrupt {
                corrupt_template(&mut arena, addr);
            }
            let cpu = Cpu {
                gpr: gprs,
                eflags,
                eip: head,
                ..Default::default()
            };
            let mut m = Machine::new(arena, timing);
            cpu_to_machine(&cpu, &mut m);
            m.gr[state::GR_ONE.0 as usize] = 1;
            m.set_ip(addr, 0);
            let mut bus = SparseBus::new();
            match m.run(&mut bus, VALIDATE_INST_CAP) {
                StopReason::ExternalBranch { target, .. } if target == VALIDATE_EXIT => {}
                _ => return false,
            }

            // --- Oracle. ---
            let mut omem = GuestMem::new();
            let mut pages: Vec<u64> = bus.touched.iter().map(|a| a & !(PAGE_SIZE - 1)).collect();
            pages.sort_unstable();
            pages.dedup();
            if pages.contains(&code_page) || pages.contains(&code_page_end) {
                // The synthetic data addresses collided with the
                // exemplar's code page; conservatively refuse to fuse.
                return false;
            }
            for &p in &pages {
                omem.map(p, PAGE_SIZE, Prot::rw());
                let patt: Vec<u8> = (0..PAGE_SIZE).map(|k| fill(p + k)).collect();
                omem.write_forced(p, &patt);
            }
            omem.map(
                code_page,
                code_page_end - code_page + PAGE_SIZE,
                Prot::rwx(),
            );
            omem.write_forced(head as u64, &code_bytes);
            let mut interp = ia32::interp::Interp::new();
            interp.cpu = cpu.clone();
            for _ in 0..len {
                match interp.step(&mut omem) {
                    Ok(ia32::interp::Event::Continue) => {}
                    _ => return false,
                }
            }

            // --- Compare. ---
            let mc = machine_to_cpu(&m, interp.cpu.eip);
            if mc.gpr != interp.cpu.gpr {
                return false;
            }
            if (mc.eflags ^ interp.cpu.eflags) & live & flags::STATUS != 0 {
                return false;
            }
            let mut taddrs = bus.touched.clone();
            taddrs.sort_unstable();
            taddrs.dedup();
            for a in taddrs {
                if omem.read(a, 1) != Ok(bus.byte(a) as u64) {
                    return false;
                }
            }
            if branch_idiom {
                let taken_target = match insts[len - 1].1 {
                    Inst::Jcc { target, .. } => target,
                    _ => return false,
                };
                if taken_target == end_ip {
                    // Degenerate jcc-to-fallthrough: both directions
                    // agree, either predicate value is correct.
                    continue;
                }
                // The oracle must have landed on one of the two arms.
                if interp.cpu.eip != taken_target && interp.cpu.eip != end_ip {
                    return false;
                }
                let oracle_taken = interp.cpu.eip == taken_target;
                if m.gr[state::GR_PAYLOAD0.0 as usize] != oracle_taken as u64 {
                    return false;
                }
            } else if interp.cpu.eip != end_ip {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dec(bytes: &[u8], base: u32) -> Vec<(u32, Inst, u8)> {
        let mut out = Vec::new();
        let mut at = 0usize;
        while at < bytes.len() {
            let (inst, len) = ia32::decode::decode(&bytes[at..], base + at as u32).unwrap();
            out.push((base + at as u32, inst, len as u8));
            at += len;
        }
        out
    }

    #[test]
    fn classify_mov_alu_pair_and_triple() {
        // mov ecx, ebx ; add ecx, edx  →  pair.
        let insts = dec(&[0x89, 0xD9, 0x01, 0xD1], 0x1000);
        assert_eq!(classify(&insts, 0), Some((IdiomKind::MovAlu, 2)));
        // mov ecx, ebx ; sub ecx, edx ; jne  →  triple.
        let insts = dec(&[0x89, 0xD9, 0x29, 0xD1, 0x75, 0x10], 0x1000);
        assert_eq!(classify(&insts, 0), Some((IdiomKind::MovAluJcc, 3)));
        // mov ecx, ebx ; dec ecx ; jne  →  triple (inc/dec middle).
        let insts = dec(&[0x89, 0xD9, 0x49, 0x75, 0x10], 0x1000);
        assert_eq!(classify(&insts, 0), Some((IdiomKind::MovAluJcc, 3)));
    }

    #[test]
    fn classify_respects_adjacency() {
        // Same pair but pretending the alu sits elsewhere: no match.
        let mut insts = dec(&[0x89, 0xD9, 0x01, 0xD1], 0x1000);
        insts[1].0 += 4; // break adjacency
        assert_eq!(classify(&insts, 0), None);
    }

    #[test]
    fn classify_chain_and_cmp_jcc() {
        // add eax, ebx ; xor eax, ecx ; add eax, 5  →  chain of 3.
        let insts = dec(&[0x01, 0xD8, 0x31, 0xC8, 0x83, 0xC0, 0x05], 0x1000);
        assert_eq!(classify(&insts, 0), Some((IdiomKind::AluChain, 3)));
        // cmp eax, ebx ; jl  →  cmp+jcc.
        let insts = dec(&[0x39, 0xD8, 0x7C, 0x10], 0x1000);
        assert_eq!(classify(&insts, 0), Some((IdiomKind::CmpJcc, 2)));
        // sub eax, ebx ; jne: the chain matcher must leave the flag
        // setter to the branch fusion.
        let insts = dec(&[0x29, 0xD8, 0x31, 0xC8, 0x75, 0x10], 0x1000);
        // sub;xor;jne — xor's flags feed jne, so the chain shrinks to
        // 1 and no chain fires; sub+xor would steal xor from the jne.
        assert_eq!(classify(&insts, 0), None);
    }

    #[test]
    fn classify_stack_idioms() {
        // push eax ; pop ebx.
        let insts = dec(&[0x50, 0x5B], 0x1000);
        assert_eq!(classify(&insts, 0), Some((IdiomKind::PushPop, 2)));
        // push eax ; push ebx.
        let insts = dec(&[0x50, 0x53], 0x1000);
        assert_eq!(classify(&insts, 0), Some((IdiomKind::PushPush, 2)));
        // push eax ; push ebx ; call rel32.
        let insts = dec(&[0x50, 0x53, 0xE8, 0x10, 0x00, 0x00, 0x00], 0x1000);
        assert_eq!(classify(&insts, 0), Some((IdiomKind::PushPushCall, 3)));
        // push eax ; pop esp is excluded.
        let insts = dec(&[0x50, 0x5C], 0x1000);
        assert_eq!(classify(&insts, 0), None);
    }

    #[test]
    fn mining_is_deterministic_and_ranked() {
        let blk = |eip: u32, weight: u64, bytes: &[u8]| BlockSample {
            eip,
            weight,
            insts: dec(bytes, eip),
        };
        let samples = vec![
            // Heavy block: chain of 3 + cmp/jcc.
            blk(
                0x1000,
                100,
                &[
                    0x01, 0xD8, 0x31, 0xC8, 0x83, 0xC0, 0x05, 0x39, 0xD8, 0x7C, 0x10,
                ],
            ),
            // Light block: push/pop.
            blk(0x2000, 10, &[0x50, 0x5B]),
            // Below MIN_WEIGHT: push/push, must not appear.
            blk(0x3000, 3, &[0x50, 0x53]),
        ];
        let a = mine(&samples);
        let b = mine(&samples);
        assert_eq!(a, b, "mining must be deterministic");
        let kinds: Vec<_> = a.idioms().iter().map(|i| (i.kind, i.weight)).collect();
        assert_eq!(
            kinds,
            vec![
                (IdiomKind::CmpJcc, 100),
                (IdiomKind::AluChain, 100),
                (IdiomKind::PushPop, 10),
            ],
            "ranked by weight, kind breaks the tie"
        );
        assert_eq!(a.idioms()[1].exemplar, 0x1000);
        assert!(a.active(IdiomKind::AluChain));
        assert!(!a.active(IdiomKind::PushPush), "below MIN_WEIGHT");
    }

    #[test]
    fn table_serialization_round_trips() {
        let samples = vec![BlockSample {
            eip: 0x1000,
            weight: 50,
            insts: dec(&[0x01, 0xD8, 0x31, 0xC8, 0x50, 0x5B], 0x1000),
        }];
        let mut t = mine(&samples);
        t.disable(IdiomKind::AluChain);
        let rt = IdiomTable::deserialize(&t.serialize()).unwrap();
        assert!(
            !rt.active(IdiomKind::AluChain),
            "disabled idioms are dropped"
        );
        assert!(rt.active(IdiomKind::PushPop));
        assert!(IdiomTable::deserialize(&[1, 2, 3]).is_none());
    }

    #[test]
    fn match_at_enforces_table_and_liveness() {
        let insts = dec(&[0x01, 0xD8, 0x31, 0xC8, 0x83, 0xC0, 0x05], 0x1000);
        let table = IdiomTable::new(vec![MinedIdiom {
            kind: IdiomKind::AluChain,
            weight: 100,
            exemplar: 0x1000,
        }]);
        let mut dead = |_: usize| 0u32;
        assert_eq!(
            match_at(&table, &insts, 0, &mut dead),
            Some((IdiomKind::AluChain, 3))
        );
        // Intermediate flags live → no fusion.
        let mut live = |j: usize| if j == 0 { flags::ZF } else { 0 };
        assert_eq!(match_at(&table, &insts, 0, &mut live), None);
        // Kind not in the table → no fusion.
        let other = IdiomTable::new(vec![MinedIdiom {
            kind: IdiomKind::PushPop,
            weight: 100,
            exemplar: 0x1000,
        }]);
        assert_eq!(match_at(&other, &insts, 0, &mut dead), None);
    }

    fn guest_with(bytes: &[u8], at: u32) -> GuestMem {
        let mut mem = GuestMem::new();
        mem.map(at as u64 & !(PAGE_SIZE - 1), PAGE_SIZE, Prot::rwx());
        mem.write_forced(at as u64, bytes);
        mem
    }

    #[test]
    fn validation_accepts_sound_templates() {
        for (kind, bytes) in [
            (IdiomKind::MovAlu, &[0x89, 0xD9, 0x01, 0xD1][..]),
            (
                IdiomKind::MovAluJcc,
                &[0x89, 0xD9, 0x29, 0xD1, 0x75, 0x10][..],
            ),
            (
                IdiomKind::AluChain,
                &[0x01, 0xD8, 0x31, 0xC8, 0x83, 0xC0, 0x05][..],
            ),
            (IdiomKind::PushPush, &[0x50, 0x53][..]),
            (IdiomKind::PushPop, &[0x50, 0x5B][..]),
            (IdiomKind::CmpJcc, &[0x39, 0xD8, 0x7C, 0x10][..]),
        ] {
            let mem = guest_with(bytes, 0x1000);
            let idiom = MinedIdiom {
                kind,
                weight: 100,
                exemplar: 0x1000,
            };
            assert!(
                validate(&mem, ipf::Timing::default(), &idiom, false),
                "sound template rejected: {}",
                kind.name()
            );
        }
    }

    #[test]
    fn validation_catches_corrupted_templates() {
        for (kind, bytes) in [
            (IdiomKind::MovAlu, &[0x89, 0xD9, 0x01, 0xD1][..]),
            (IdiomKind::PushPop, &[0x50, 0x5B][..]),
            (
                IdiomKind::AluChain,
                &[0x01, 0xD8, 0x31, 0xC8, 0x83, 0xC0, 0x05][..],
            ),
        ] {
            let mem = guest_with(bytes, 0x1000);
            let idiom = MinedIdiom {
                kind,
                weight: 100,
                exemplar: 0x1000,
            };
            assert!(
                !validate(&mem, ipf::Timing::default(), &idiom, true),
                "corrupted template passed: {}",
                kind.name()
            );
        }
    }

    #[test]
    fn validation_rejects_stale_exemplars() {
        // Exemplar bytes no longer contain the mined idiom.
        let mem = guest_with(&[0x90, 0x90, 0x90, 0x90], 0x1000);
        let idiom = MinedIdiom {
            kind: IdiomKind::MovAlu,
            weight: 100,
            exemplar: 0x1000,
        };
        assert!(!validate(&mem, ipf::Timing::default(), &idiom, false));
    }
}
