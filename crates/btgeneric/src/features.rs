//! The paper's code-generation ablations (§5), and the one emission
//! front end both translation phases drive. This is the only code that
//! says what each [`Features`] knob means: the engine asks it for a
//! block's FP speculation seed and default access mode, and cold
//! generation and hot trace building emit every instruction through an
//! `Emission`, which owns the flag-liveness lookup, the inline-FP-check
//! choice and the fusion test.

use crate::cold::discover::Region;
use crate::cold::gen::SpecSeed;
use crate::cold::liveness::{analyze, Liveness, ALL};
use crate::engine::BlockKind;
use crate::templates::{self, AccessMode, AlignCache, EmitCtx, FpCtx, MisalignPlan, Sink, XmmCtx};
use ia32::inst::Inst as I32;
use ipf::regs::Pr;
use std::collections::HashMap;

/// The paper's ablations: each knob switches one mechanism off in both
/// phases and every stage, leaving the naive translation in its place.
/// All on by default.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Features {
    /// EFlags liveness (paper §2/§5). Off: every status flag and DF is
    /// live and read after every instruction.
    pub flag_liveness: bool,
    /// Compare+branch fusion. Off: a flag setter never fuses with the
    /// `Jcc` after it.
    pub fusion: bool,
    /// Misalignment detection and avoidance (§5's three stages). Off:
    /// every access is plain, and each misaligned one takes the
    /// OS-handled fault.
    pub misalign_avoidance: bool,
    /// FP TOS/tag/mode/format speculation. Off: blocks speculate no
    /// entry state and check FP tags inline, per access.
    pub fp_spec: bool,
}

impl Default for Features {
    fn default() -> Features {
        Features {
            flag_liveness: true,
            fusion: true,
            misalign_avoidance: true,
            fp_spec: true,
        }
    }
}

impl Features {
    /// Each knob off in turn, named.
    pub fn ablations() -> [(&'static str, Features); 4] {
        let off = |knob: fn(&mut Features)| {
            let mut features = Features::default();
            knob(&mut features);
            features
        };
        [
            ("no-flag-liveness", off(|f| f.flag_liveness = false)),
            ("no-fusion", off(|f| f.fusion = false)),
            (
                "no-misalign-avoidance",
                off(|f| f.misalign_avoidance = false),
            ),
            ("no-fp-spec", off(|f| f.fp_spec = false)),
        ]
    }

    /// One byte per knob, in declaration order: what
    /// [`crate::persist::fingerprint`] hashes.
    pub fn bytes(self) -> [u8; 4] {
        [
            self.flag_liveness,
            self.fusion,
            self.misalign_avoidance,
            self.fp_spec,
        ]
        .map(u8::from)
    }

    /// The FP speculation seed of a block translated now: the state
    /// the machine holds (`now`), or nothing speculated.
    pub(crate) fn spec_seed(self, now: SpecSeed) -> SpecSeed {
        if self.fp_spec {
            now
        } else {
            SpecSeed::default()
        }
    }

    /// How a `kind` block generates an access with no recorded
    /// override: stage 1 probes, stage 2 detects and avoids, hot code
    /// takes the plain access. Without avoidance every stage takes the
    /// plain access.
    pub(crate) fn access_mode(self, kind: BlockKind) -> AccessMode {
        match kind {
            _ if !self.misalign_avoidance => AccessMode::Fast,
            BlockKind::ColdV1 => AccessMode::Probe,
            BlockKind::ColdV2 => AccessMode::DetectAvoid,
            BlockKind::Hot => AccessMode::Fast,
        }
    }

    /// Whether regenerating a block that keeps faulting on misaligned
    /// accesses would avoid anything: without avoidance the rebuilt
    /// block takes the same faults.
    pub(crate) fn rebuild_avoids_misalignment(self) -> bool {
        self.misalign_avoidance
    }
}

/// Where an instruction sits: its address and encoded length, and its
/// index in the discovered block that holds it within the region its
/// flag liveness is read from.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Loc {
    /// Instruction address.
    pub ip: u32,
    /// Encoded length.
    pub len: u8,
    /// Entry of the discovered region whose flag liveness applies (a
    /// hot trace's regions are keyed by it).
    pub region: u32,
    /// Start of the containing block in that region.
    pub block: u32,
    /// Index within that block.
    pub idx: usize,
}

/// What an [`Emission`] emits.
pub(crate) enum Scope<'e> {
    /// One cold block of this discovered region.
    Cold(&'e Region),
    /// A hot trace over these regions, keyed by [`Loc::region`]: it
    /// eliminates FXCHG through the register permutation.
    Hot(&'e HashMap<u32, Region>),
}

/// The per-instruction emission front end of both phases: the FP/XMM
/// tracking state and alignment cache the templates update in place,
/// the misalignment plan, and flag liveness per region (analyzed the
/// first time an instruction of that region asks), each as the
/// [`Features`] say.
pub(crate) struct Emission<'e> {
    features: Features,
    scope: Scope<'e>,
    live: HashMap<u32, Liveness>,
    plan: &'e MisalignPlan,
    align: AlignCache,
    /// FP stack tracking.
    pub fp: FpCtx,
    /// XMM format tracking.
    pub xmm: XmmCtx,
}

impl<'e> Emission<'e> {
    /// Emission of `scope` speculating `spec`, whose first FP-class
    /// instruction is MMX if `entry_mmx`. `inline_fp` asks for
    /// per-access FP tag checks whatever the knob says (the cold
    /// variant rebuilt after a TagFix exit).
    pub(crate) fn new(
        features: Features,
        scope: Scope<'e>,
        plan: &'e MisalignPlan,
        spec: SpecSeed,
        entry_mmx: bool,
        inline_fp: bool,
    ) -> Emission<'e> {
        let mut fp = FpCtx::new(spec.tos, matches!(scope, Scope::Hot(_)));
        fp.entry_mmx = entry_mmx;
        fp.cur_mmx = entry_mmx;
        fp.inline_checks = inline_fp || !features.fp_spec;
        Emission {
            features,
            scope,
            live: HashMap::new(),
            plan,
            align: AlignCache::default(),
            fp,
            xmm: XmmCtx::new(spec.xmm_fmt),
        }
    }

    /// The emission context of the instruction at `at`. A `guarded`
    /// instruction — inside an if-converted hammock — keeps every live
    /// flag in the home, so the flag thunk is never written under a
    /// predicate. Without flag liveness every status flag and DF is
    /// live and read.
    pub(crate) fn ctx(&mut self, at: Loc, guarded: bool) -> EmitCtx<'_> {
        let (live_flags, read_flags) = if self.features.flag_liveness {
            let scope = &self.scope;
            let live = self.live.entry(at.region).or_insert_with(|| match scope {
                Scope::Cold(region) => analyze(region),
                Scope::Hot(regions) => analyze(&regions[&at.region]),
            });
            live.flags_after(at.block, at.idx)
        } else {
            (ALL, ALL)
        };
        EmitCtx {
            ip: at.ip,
            next_ip: at.ip + at.len as u32,
            live_flags,
            read_flags: if guarded { live_flags } else { read_flags },
            fp: &mut self.fp,
            xmm: &mut self.xmm,
            misalign: self.plan,
            align: &mut self.align,
        }
    }

    /// The alignment checks emitted so far, for [`Emission::end_guard`].
    pub(crate) fn align_checks(&self) -> AlignCache {
        self.align.clone()
    }

    /// Ends a hammock body begun with the alignment checks `before`:
    /// the checks the body made ran under its guard and are forgotten.
    pub(crate) fn end_guard(&mut self, before: &AlignCache) {
        self.align.keep_from(before);
    }

    /// Emits the flag setter at `at` fused with the `Jcc` on `cond` at
    /// `jcc` after it and returns the predicates `(taken, not_taken)` —
    /// if fusion is on, the setter writes every flag the branch reads
    /// and its template fuses. `None`: nothing was emitted; emit the two
    /// apart.
    pub(crate) fn fuse(
        &mut self,
        sink: &mut Sink,
        setter: &I32,
        at: Loc,
        cond: ia32::Cond,
        jcc: Loc,
    ) -> Option<(Pr, Pr)> {
        let reads = cond.flags_read();
        if !self.features.fusion || setter.props().flags_must & reads != reads {
            return None;
        }
        let at = Loc {
            region: jcc.region,
            block: jcc.block,
            idx: jcc.idx,
            ..at
        };
        templates::emit_fused_cmp_jcc(sink, setter, cond, &mut self.ctx(at, false))
    }
}
