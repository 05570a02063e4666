//! The five workloads: what they run, how a pass runs it, and how each
//! result is checked against the independent `ia32::interp` oracle.
//!
//! Every program runs under `Config::default()` except the fields its
//! workload is about, so the numbers describe what ships.

use crate::gen;
use crate::span::Recorder;
use btgeneric::btos::{BtOs, SyscallOutcome};
use btgeneric::engine::{Config, Outcome};
use btgeneric::serving::{namespace_key, SharedCache, DEFAULT_SHARDS};
use btgeneric::trace::TraceConfig;
use btlib::serve::Scheduler;
use btlib::{Process, SignalPlan, SimOs};
use ia32::asm::Image;
use ia32::interp::{Event, Interp};
use ia32::mem::{GuestMem, Prot};
use ipf::machine::{Bus, BusError, CodeArena, Machine, StopReason};
use std::path::PathBuf;
use std::sync::Arc;
use workloads::harness::{build_image, NATIVE_CODE_BASE, NATIVE_EXIT};
use workloads::Workload;

/// Why each workload exists, as `BENCHMARK.json` records it.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "spec_int",
        "the 12 Fig-5 kernels at full scale: hot-phase and simulator bound, where hot-IR and ipf::Machine work must show",
    ),
    (
        "fp_mix",
        "5 FP/SIMD kernels plus sysmark at 2x scale: the same hot layer through the x87/MMX/SSE templates and FP speculation",
    ),
    (
        "bigcode_cold",
        "seeded 28k-block guest in which nothing heats: translator, discovery, install and dispatch bound; hot work must not move it",
    ),
    (
        "engine_stress",
        "eviction, inline caches, shadow stack, misalignment stages, SMC and seeded signal storms: the engine's slow paths",
    ),
    (
        "fleet_warm",
        "15 kernels from warm-start images plus a 1200-session closed-loop fleet over a shared cache: replay, not demand translation",
    ),
];

/// Native slots of the start-up window (the Sysmark responsiveness
/// argument: time to the first few thousand slots).
pub const STARTUP_SLOTS: u64 = 2_500;
/// Sessions in the closed-loop fleet.
const FLEET_SESSIONS: usize = 1_200;
/// Scheduler quantum (native slots) and live-session cap of the fleet.
const FLEET_QUANTUM: u64 = 4_000;
const FLEET_MAX_LIVE: usize = 64;
/// Slot budget that no correct program reaches.
const NO_LIMIT: u64 = u64::MAX / 2;

/// Where the benchmark writes (warm-start images, traces, results).
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// A native-twin run: the simulator with no translator in front of it.
pub struct Native {
    pub cycles: u64,
    pub slots: u64,
}

/// One guest program with the reference values set-up derived for it.
pub struct Program {
    pub name: String,
    pub image: Image,
    pub cfg: Config,
    pub signals: Option<SignalPlan>,
    pub result_addr: u32,
    /// `RESULT` under the interpreter oracle.
    pub oracle: u64,
    /// Guest instructions the oracle retired.
    pub guest_insts: u64,
    /// Cycles of the oracle run under the IA-32 timing model.
    pub ia32hw_cycles: u64,
    pub native: Option<Native>,
}

impl Program {
    fn os(&self) -> SimOs {
        match &self.signals {
            Some(plan) => SimOs::new().with_signals(plan.clone()),
            None => SimOs::new(),
        }
    }

    fn cfg_traced(&self, trace: TraceConfig) -> Config {
        Config {
            trace,
            ..self.cfg.clone()
        }
    }

    pub fn launch(&self, cfg: Config) -> Process<SimOs> {
        Process::launch_with(&self.image, self.os(), cfg).expect("BTOS versions match")
    }
}

/// The closed-loop session fleet of `fleet_warm`.
pub struct Fleet {
    pub kernels: Vec<Program>,
    /// Session `i` runs `kernels[order[i]]`.
    pub order: Vec<usize>,
}

pub struct Suite {
    pub programs: Vec<Program>,
    pub fleet: Option<Fleet>,
    /// Bytes of the warm-start images the programs load.
    pub image_bytes: u64,
}

impl Suite {
    /// Programs plus sessions: the denominator of the failure count.
    pub fn units(&self) -> usize {
        self.programs.len() + self.fleet.as_ref().map_or(0, |f| f.order.len())
    }
}

struct MemBus<'a>(&'a mut GuestMem);

impl Bus for MemBus<'_> {
    fn read(&mut self, addr: u64, size: u32) -> Result<u64, BusError> {
        self.0.read(addr, size).map_err(|_| BusError::Unmapped)
    }

    fn write(&mut self, addr: u64, size: u32, val: u64) -> Result<(), BusError> {
        self.0
            .write(addr, size, val)
            .map_err(|_| BusError::Unmapped)
    }
}

/// `workloads::harness::run_native`, kept here because that function
/// does not report the slot count the `ipf` layer metrics need.
fn run_native(w: &Workload, scale: u32) -> Native {
    let mut cb = ipf::asm::CodeBuilder::new();
    (w.build_native)(&mut cb, scale);
    let (bundles, _) = cb.assemble(NATIVE_CODE_BASE);
    let mut arena = CodeArena::new(NATIVE_CODE_BASE);
    arena.append(bundles, 0);
    let mut mem = GuestMem::new();
    mem.map(
        workloads::DATA as u64,
        workloads::DATA_SIZE as u64,
        Prot::rw(),
    );
    for (addr, bytes) in (w.data)() {
        mem.write_forced(addr as u64, &bytes);
    }
    let mut m = Machine::new(arena, ipf::Timing::default());
    m.set_ip(NATIVE_CODE_BASE, 0);
    match m.run(&mut MemBus(&mut mem), NO_LIMIT) {
        StopReason::ExternalBranch { target, .. } if target == NATIVE_EXIT => {}
        other => panic!("native {} did not finish cleanly: {other:?}", w.name),
    }
    Native {
        cycles: m.cycles,
        slots: m.inst_count,
    }
}

/// Runs `image` under the reference interpreter — with a signal-free
/// `SimOs` behind `int 0x80` when the kernel needs one, because signal
/// delivery must be transparent to the final state — and returns
/// (`RESULT`, instructions retired, IA-32-model cycles).
fn oracle(name: &str, image: &Image, uses_os: bool, result_addr: u32) -> (u64, u64, u64) {
    let mut mem = GuestMem::new();
    let mut interp = Interp::new();
    interp.cpu = image.load(&mut mem);
    if uses_os {
        let mut os = SimOs::new();
        loop {
            assert!(
                interp.stats.instructions < 1 << 32,
                "{name}: oracle ran away"
            );
            match interp.step(&mut mem) {
                Ok(Event::Continue) => {}
                Ok(Event::Halt) => break,
                Ok(Event::Syscall { vector: 0x80 }) => {
                    if let SyscallOutcome::Exit(_) = os.syscall(&mut interp.cpu, &mut mem) {
                        break;
                    }
                }
                other => panic!("{name}: oracle stopped on {other:?}"),
            }
        }
    } else {
        match interp.run(&mut mem, NO_LIMIT) {
            Ok(Event::Halt) => {}
            other => panic!("{name}: oracle stopped on {other:?}"),
        }
    }
    let result = mem
        .read(result_addr as u64, 8)
        .expect("result slot is mapped");
    (result, interp.stats.instructions, interp.stats.cycles)
}

/// Builds one kernel's program: image, oracle values, native twin.
fn kernel(rec: &mut Recorder, w: &Workload, scale: u32, cfg: Config, twin: bool) -> Program {
    let (image, _) = rec.time("setup.build_image", w.name, || build_image(w, scale));
    let ((oracle, guest_insts, ia32hw_cycles), _) = rec.time("setup.oracle", w.name, || {
        oracle(w.name, &image, w.uses_os, workloads::RESULT)
    });
    let native = twin.then(|| rec.time("setup.native", w.name, || run_native(w, scale)).0);
    Program {
        name: w.name.to_owned(),
        image,
        cfg,
        signals: None,
        result_addr: workloads::RESULT,
        oracle,
        guest_insts,
        ia32hw_cycles,
        native,
    }
}

fn int_and_indirect() -> Vec<Workload> {
    let mut all = workloads::spec_int();
    all.extend(workloads::indirect_kernels());
    all
}

/// Set-up: generate or build the images, run the oracle and the native
/// twins, and (for `fleet_warm`) write the warm-start images.
pub fn setup(workload: &str, seed: u64, rec: &mut Recorder) -> Suite {
    let default = Config::default;
    let mut suite = Suite {
        programs: Vec::new(),
        fleet: None,
        image_bytes: 0,
    };
    match workload {
        "spec_int" => {
            for w in workloads::spec_int() {
                suite
                    .programs
                    .push(kernel(rec, &w, w.scale, default(), true));
            }
        }
        "fp_mix" => {
            let mut all = workloads::spec_fp();
            all.push(workloads::sysmark());
            for w in all {
                suite
                    .programs
                    .push(kernel(rec, &w, w.scale * 2, default(), true));
            }
        }
        "bigcode_cold" => {
            let (image, _) = rec.time("setup.build_image", "bigcode", || gen::image(seed));
            let ((oracle, guest_insts, ia32hw_cycles), _) =
                rec.time("setup.oracle", "bigcode", || {
                    oracle("bigcode", &image, false, gen::RESULT)
                });
            suite.programs.push(Program {
                name: "bigcode".to_owned(),
                image,
                cfg: default(),
                signals: None,
                result_addr: gen::RESULT,
                oracle,
                guest_insts,
                ia32hw_cycles,
                native: None,
            });
        }
        "engine_stress" => {
            let gcc = workloads::spec_int()
                .into_iter()
                .find(|w| w.name == "gcc")
                .expect("spec_int has a gcc kernel");
            let evicting = Config {
                max_cache_bundles: 250,
                ..default()
            };
            // An eviction costs ≈0.25 ms of host time, so gcc runs at an
            // eighth of its scale: ≈5 600 evictions, ≈0.4 s.
            suite
                .programs
                .push(kernel(rec, &gcc, gcc.scale / 8, evicting, true));
            let mut plain = workloads::indirect_kernels();
            plain.push(workloads::misalign_heavy());
            for w in plain {
                suite
                    .programs
                    .push(kernel(rec, &w, w.scale, default(), true));
            }
            for w in workloads::hostile_kernels() {
                let mut p = kernel(rec, &w, w.scale, default(), true);
                p.signals = Some(SignalPlan::seeded(seed, 24, u64::from(w.scale) * 32));
                suite.programs.push(p);
            }
        }
        "fleet_warm" => {
            let dir = out_dir();
            std::fs::create_dir_all(&dir).expect("benchmark/out is writable");
            for (i, w) in int_and_indirect().iter().enumerate() {
                let mut p = kernel(rec, w, w.scale / 4, default(), true);
                let path = dir.join(format!("warm.{}.{i}.{}.img", std::process::id(), w.name));
                let (saved, _) = rec.time("setup.warm_image", w.name, || {
                    let mut cold = p.launch(Config {
                        save_image: Some(path.clone()),
                        ..default()
                    });
                    matches!(cold.run(NO_LIMIT), Outcome::Halted(_))
                        && cold.engine.stats.image_saves == 1
                });
                assert!(saved, "{}: set-up run wrote no warm-start image", w.name);
                suite.image_bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
                p.cfg.load_image = Some(path);
                suite.programs.push(p);
            }
            let kernels: Vec<Program> = int_and_indirect()
                .iter()
                .map(|w| kernel(rec, w, (w.scale / 2000).max(16), default(), false))
                .collect();
            // A seeded permutation of the round-robin kernel order.
            let mut order: Vec<usize> = (0..FLEET_SESSIONS).map(|i| i % kernels.len()).collect();
            gen::Rng::new(seed).shuffle(&mut order);
            suite.fleet = Some(Fleet { kernels, order });
        }
        other => panic!("unknown workload {other}"),
    }
    suite
}

/// Removes the warm-start images `setup` wrote.
impl Drop for Suite {
    fn drop(&mut self) {
        for p in &self.programs {
            if let Some(path) = &p.cfg.load_image {
                let _ = std::fs::remove_file(path);
            }
        }
    }
}

/// What a pass's visitor is looking at.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// One of `suite.programs`, run to completion.
    Program,
    /// A fleet session of `fleet.kernels[k]`.
    Session(usize),
}

/// The simulated outcome of one program or session: what every pass
/// must reproduce exactly.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Ran {
    pub cycles: u64,
    pub startup_cycles: u64,
    /// Ended `Halted`/`Exited` with `RESULT` equal to the oracle's.
    pub ok: bool,
}

pub struct FleetRun {
    pub shared: Arc<SharedCache>,
    pub rounds: u64,
    pub slices: u64,
    pub host_ns: u64,
}

pub struct Pass {
    /// Programs in suite order, then sessions in admission order.
    pub ran: Vec<Ran>,
    /// Host time (s) of `launch_with` → halt of each program, in suite
    /// order, then of the fleet loop.
    pub host_s: Vec<f64>,
    pub fleet: Option<FleetRun>,
}

fn finished_ok(out: &Outcome, p: &Process<SimOs>, prog: &Program) -> bool {
    matches!(out, Outcome::Halted(_) | Outcome::Exited(_))
        && p.engine.mem.read(prog.result_addr as u64, 8) == Ok(prog.oracle)
}

/// Cycles a fresh process needs for its first `STARTUP_SLOTS` slots.
/// Signal-free: whether a seeded arrival lands inside so short a window
/// is the seed's luck, not the translator's doing.
pub fn startup_cycles(prog: &Program, cfg: Config) -> u64 {
    let mut p = Process::launch_with(&prog.image, SimOs::new(), cfg).expect("BTOS versions match");
    p.run(STARTUP_SLOTS);
    p.engine.machine.cycles
}

/// What a pass calls with each finished process before dropping it.
pub type Visit<'a> = dyn FnMut(Unit, &Program, &mut Process<SimOs>, &mut Recorder) + 'a;

/// One pass over the suite. Translation-cache warm-up is inside the
/// pass, because a DBT's user pays it on every launch. `visit` sees
/// each finished process before it is dropped.
pub fn pass(suite: &Suite, rec: &mut Recorder, trace: TraceConfig, visit: &mut Visit) -> Pass {
    let mut ran = Vec::with_capacity(suite.units());
    let mut host_s = Vec::with_capacity(suite.programs.len() + 1);
    for prog in &suite.programs {
        let cfg = prog.cfg_traced(trace);
        let (mut p, launch_ns) = rec.time("run.launch", &prog.name, || prog.launch(cfg.clone()));
        let (out, run_ns) = rec.time("run.execute", &prog.name, || p.run(NO_LIMIT));
        host_s.push((launch_ns + run_ns) as f64 / 1e9);
        let (startup, _) = rec.time("run.startup", &prog.name, || startup_cycles(prog, cfg));
        ran.push(Ran {
            cycles: p.engine.machine.cycles,
            startup_cycles: startup,
            ok: finished_ok(&out, &p, prog),
        });
        visit(Unit::Program, prog, &mut p, rec);
    }
    let fleet = suite.fleet.as_ref().map(|fleet| {
        let open = rec.open("run.fleet", "fleet");
        let shared = SharedCache::new(DEFAULT_SHARDS);
        let mut sched: Scheduler<SimOs> = Scheduler::new(FLEET_QUANTUM, FLEET_MAX_LIVE);
        let mut sessions = vec![None; fleet.order.len()];
        let mut next = 0;
        loop {
            // Closed loop: a session is admitted only when a seat frees.
            while next < fleet.order.len() && sched.live() + sched.waiting() < FLEET_MAX_LIVE {
                let k = fleet.order[next];
                let prog = &fleet.kernels[k];
                let mut p = prog.launch(prog.cfg_traced(trace));
                p.engine
                    .attach_shared(shared.tenant(namespace_key(&prog.cfg, k as u64 + 1)));
                sched.admit(next as u64, p, NO_LIMIT);
                next += 1;
            }
            let (more, _) = rec.time("run.tick", "fleet", || sched.tick());
            for (tag, mut p, out) in sched.take_completed() {
                let k = fleet.order[tag as usize];
                let prog = &fleet.kernels[k];
                sessions[tag as usize] = Some(Ran {
                    cycles: p.engine.machine.cycles,
                    startup_cycles: 0,
                    ok: finished_ok(&out, &p, prog),
                });
                visit(Unit::Session(k), prog, &mut p, rec);
            }
            if !more && next >= fleet.order.len() {
                break;
            }
        }
        let fleet_ns = rec.close(open);
        host_s.push(fleet_ns as f64 / 1e9);
        ran.extend(
            sessions
                .into_iter()
                .map(|s| s.expect("every admitted session completes")),
        );
        FleetRun {
            shared,
            rounds: sched.rounds(),
            slices: sched.slices(),
            host_ns: fleet_ns,
        }
    });
    Pass { ran, host_s, fleet }
}
