//! The four benchmark cells and the session path every rep runs through.
//!
//! [`prepare`] and [`Ready::run`] re-create `SimSession::run` from the
//! public `rp_core` pieces (`Engine`, `SimAgent::new`, `RunState`,
//! `attach_*`, `enable_serving`) so that set-up and run can be timed apart
//! and the agent can be wrapped in a timing actor. [`session`] builds the
//! same cell through `SimSession`; every invocation runs it once and checks
//! that both paths give the same model digest.

use rp_core::agent::{AgentMsg, SimAgent};
use rp_core::{
    PilotConfig, PilotState, RunReport, RunState, ServingPlan, ServingSpec, ServingState,
    SimSession, StaticWorkload, TaskDescription, TaskState,
};
use rp_lineage::Lineage;
use rp_metrics::Registry;
use rp_profiler::Profiler;
use rp_sim::{Actor, Engine, SimDuration, SimTime};
use rp_telemetry::{Telemetry, TelemetryConfig};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Sampling period of every recorder, as the experiment harness uses it.
const RECORDER_PERIOD: SimDuration = SimDuration::from_secs(1);
/// Event cap handed to the engine, as `SimSession` sets it.
const MAX_EVENTS: u64 = 2_000_000_000;
/// Payload length of the hybrid cell: long enough that every Flux queue
/// head stays blocked, so EASY backfill runs on almost every token.
const HYBRID_PAYLOAD: SimDuration = SimDuration::from_secs(360);
/// The srun knee of `results/exp_serving.txt`.
const SERVING_SPEC: &str = "rate=100,horizon=600";
/// The experiment harness's rep-0 workload seed and its default serving
/// seed; a cell at `HARNESS_SEED` uses `HARNESS_SERVING_SEED`.
pub const HARNESS_SEED: u64 = 1000;
const HARNESS_SERVING_SEED: u64 = 0x5EED;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// flux_1 null @1024: 229,376 zero-length tasks under one Flux instance.
    Flux1Null,
    /// The same simulation with all four recorders attached and exported.
    Flux1NullObs,
    /// RP+Flux+Dragon @512: 114,688 alternating executables and functions.
    HybridDummy,
    /// srun @4 under open-loop Poisson serving at the srun knee.
    ServingSrun,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::Flux1Null,
        Workload::Flux1NullObs,
        Workload::HybridDummy,
        Workload::ServingSrun,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Flux1Null => "flux1_null",
            Workload::Flux1NullObs => "flux1_null_obs",
            Workload::HybridDummy => "hybrid_dummy",
            Workload::ServingSrun => "serving_srun",
        }
    }

    /// Parse a `--workload` value.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The recorders this workload attaches.
    pub fn recorders(self) -> Recorders {
        match self {
            Workload::Flux1NullObs => Recorders::ALL,
            _ => Recorders::NONE,
        }
    }

    fn config(self, seed: u64) -> PilotConfig {
        match self {
            Workload::Flux1Null | Workload::Flux1NullObs => PilotConfig::flux(1024, 1),
            Workload::HybridDummy => PilotConfig::flux_dragon(512, 16),
            Workload::ServingSrun => PilotConfig::srun(4),
        }
        .with_seed(seed)
    }

    fn tasks(self) -> Vec<TaskDescription> {
        match self {
            Workload::Flux1Null | Workload::Flux1NullObs => rp_workloads::null_workload(1024),
            Workload::HybridDummy => rp_workloads::mixed_workload(512, HYBRID_PAYLOAD),
            Workload::ServingSrun => Vec::new(),
        }
    }

    fn serving(self) -> Option<ServingSpec> {
        (self == Workload::ServingSrun)
            .then(|| ServingSpec::parse(SERVING_SPEC).expect("serving spec is well-formed"))
    }
}

/// Which recorders a rep attaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recorders {
    pub profiler: bool,
    pub metrics: bool,
    pub telemetry: bool,
    pub lineage: bool,
}

impl Recorders {
    pub const NONE: Recorders = Recorders {
        profiler: false,
        metrics: false,
        telemetry: false,
        lineage: false,
    };
    pub const ALL: Recorders = Recorders {
        profiler: true,
        metrics: true,
        telemetry: true,
        lineage: true,
    };
}

/// One rep's inputs: the workload, its seeds and its recorders.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub workload: Workload,
    pub seed: u64,
    pub serving_seed: u64,
    pub recorders: Recorders,
}

impl Cell {
    /// The cell as the workload defines it. The serving seed moves with
    /// the workload seed: `HARNESS_SERVING_SEED + (seed - HARNESS_SEED)`.
    pub fn new(workload: Workload, seed: u64) -> Cell {
        Cell {
            workload,
            seed,
            serving_seed: HARNESS_SERVING_SEED.wrapping_add(seed.wrapping_sub(HARNESS_SEED)),
            recorders: workload.recorders(),
        }
    }

    /// Tasks offered by the batch workload.
    pub fn batch_len(&self) -> u64 {
        match self.workload {
            Workload::Flux1Null | Workload::Flux1NullObs => rp_workloads::task_count(1024),
            Workload::HybridDummy => rp_workloads::task_count(512),
            Workload::ServingSrun => 0,
        }
    }
}

/// The cell built through the public `SimSession` API.
pub fn session(cell: &Cell) -> SimSession {
    let w = cell.workload;
    let mut s = SimSession::with_tasks(w.config(cell.seed), w.tasks());
    let r = cell.recorders;
    if r.profiler {
        s = s.with_profiling(RECORDER_PERIOD);
    }
    if r.metrics {
        s = s.with_metrics(RECORDER_PERIOD);
    }
    if r.telemetry {
        s = s.with_telemetry(RECORDER_PERIOD);
    }
    if r.lineage {
        s = s.with_lineage();
    }
    if let Some(spec) = w.serving() {
        s = s.with_serving(spec, cell.serving_seed);
    }
    s
}

/// Host seconds spent in each part of set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Workload generation.
    pub gen_s: f64,
    /// Serving-plan generation (0 without serving).
    pub plan_s: f64,
    /// `SimAgent::new`.
    pub agent_new_s: f64,
    /// Seed to a session ready to run, all parts included.
    pub total_s: f64,
}

/// A session ready to run.
pub struct Ready {
    engine: Engine<AgentMsg>,
    state: Rc<RefCell<RunState>>,
    nodes: u32,
    profiler: Option<Profiler>,
    registry: Option<Registry>,
    telemetry: Option<Telemetry>,
    lineage: Option<Lineage>,
    serving: Option<Rc<RefCell<ServingState>>>,
}

/// Engine figures of one finished rep.
#[derive(Debug, Clone, Copy)]
pub struct EngineStats {
    /// Events delivered.
    pub delivered: u64,
    /// Highest event-queue depth.
    pub peak_queue: usize,
    /// Host seconds inside `run_until_idle`.
    pub engine_s: f64,
}

/// Build a session for `cell`, handing the agent to `wrap` before it is
/// registered with the engine (the identity for untraced reps).
pub fn prepare(
    cell: &Cell,
    wrap: &dyn Fn(SimAgent) -> Box<dyn Actor<AgentMsg>>,
) -> (Ready, SetupTimes) {
    let t0 = Instant::now();
    let w = cell.workload;
    let tasks = w.tasks();
    let t1 = Instant::now();
    let plan = w
        .serving()
        .map(|spec| {
            let plan = ServingPlan::generate(&spec, cell.serving_seed);
            (spec, plan)
        })
        .filter(|(spec, _)| spec.is_active());
    let t2 = Instant::now();

    let cfg = w.config(cell.seed);
    let nodes = cfg.nodes;
    let state = Rc::new(RefCell::new(RunState::default()));
    let mut engine: Engine<AgentMsg> = Engine::new();
    let mut agent = SimAgent::new(cfg, Box::new(StaticWorkload::new(tasks)), state.clone());
    let t3 = Instant::now();

    // Attach order, sampler order and initial schedule follow
    // `SimSession::run`: sampler ties fire in registration order.
    let r = cell.recorders;
    let profiler = r.profiler.then(|| {
        let prof = Profiler::new(engine.clock());
        agent.attach_profiler(prof.clone());
        (prof, agent.gauge_sampler())
    });
    let registry = r.metrics.then(|| {
        let reg = Registry::new(engine.clock());
        agent.attach_metrics(&reg);
        (reg, agent.metrics_sampler())
    });
    let telemetry = r.telemetry.then(|| {
        let tel = Telemetry::new(
            engine.clock(),
            TelemetryConfig::with_period(RECORDER_PERIOD),
        );
        agent.attach_telemetry(tel.clone());
        (tel, agent.telemetry_sampler())
    });
    let lineage = r.lineage.then(|| {
        let lin = Lineage::new(engine.clock());
        agent.attach_lineage(lin.clone());
        lin
    });
    let serving = plan.map(|(spec, plan)| {
        let batch_times: Vec<SimTime> = plan.batches.iter().map(|b| b.at).collect();
        let st = Rc::new(RefCell::new(ServingState::new(spec, plan)));
        agent.enable_serving(Rc::clone(&st));
        (st, batch_times)
    });
    let id = engine.add_actor(wrap(agent));
    let profiler = profiler.map(|(prof, sampler)| {
        engine.add_sampler(RECORDER_PERIOD, sampler);
        prof
    });
    let registry = registry.map(|(reg, sampler)| {
        engine.add_sampler(RECORDER_PERIOD, sampler);
        reg
    });
    let telemetry = telemetry.map(|(tel, sampler)| {
        engine.add_sampler(RECORDER_PERIOD, sampler);
        tel
    });
    engine.schedule(SimTime::ZERO, id, AgentMsg::Init);
    let serving = serving.map(|(st, batch_times)| {
        for (b, at) in batch_times.iter().enumerate() {
            engine.schedule(*at, id, AgentMsg::ServingArrive(b as u32));
        }
        st
    });
    let t4 = Instant::now();

    let ready = Ready {
        engine,
        state,
        nodes,
        profiler,
        registry,
        telemetry,
        lineage,
        serving,
    };
    let times = SetupTimes {
        gen_s: (t1 - t0).as_secs_f64(),
        plan_s: (t2 - t1).as_secs_f64(),
        agent_new_s: (t3 - t2).as_secs_f64(),
        total_s: (t4 - t0).as_secs_f64(),
    };
    (ready, times)
}

impl Ready {
    /// Run to quiescence and assemble the report, as `SimSession::run`
    /// does after its engine returns.
    pub fn run(self) -> (RunReport, EngineStats) {
        let Ready {
            mut engine,
            state,
            nodes,
            profiler,
            registry,
            telemetry,
            lineage,
            serving,
        } = self;
        let t0 = Instant::now();
        let end = engine.run_until_idle(MAX_EVENTS);
        let engine_s = t0.elapsed().as_secs_f64();
        let spec = rp_platform::frontier().node;

        let mut st = state.borrow_mut();
        if st.pilot.current() == PilotState::Active {
            st.pilot.advance(PilotState::Done, end);
            if let Some(prof) = &profiler {
                let comp = prof.intern("agent");
                let done = prof.intern("PILOT_DONE");
                prof.instant(comp, rp_profiler::NO_UID, done);
            }
            if let Some(lin) = &lineage {
                lin.record_ctx(
                    rp_lineage::META_UID,
                    rp_lineage::EV_PILOT,
                    PilotState::Done as u16,
                    rp_lineage::NO_BACKEND,
                    rp_lineage::NO_PARTITION,
                    rp_lineage::NO_VALUE,
                );
            }
        }
        if let Some(lin) = &lineage {
            lin.record_ctx(
                rp_lineage::META_UID,
                rp_lineage::EV_RUN_END,
                rp_lineage::NO_DETAIL,
                rp_lineage::NO_BACKEND,
                rp_lineage::NO_PARTITION,
                engine.delivered(),
            );
        }
        let tasks = st
            .order
            .iter()
            .map(|uid| st.tasks.get(uid.0).expect("recorded").clone())
            .collect();
        let report = RunReport {
            nodes,
            total_cores: nodes as u64 * spec.cores as u64,
            total_gpus: nodes as u64 * spec.gpus as u64,
            tasks,
            instances: std::mem::take(&mut st.instances),
            services: std::mem::take(&mut st.services),
            pilot: std::mem::take(&mut st.pilot),
            agent_ready: st.agent_ready,
            end,
            profile: profiler.map(|p| p.snapshot()),
            metrics: registry.map(|reg| {
                reg.counter(
                    "rp_engine_events_total",
                    &[],
                    "Discrete events the engine delivered",
                )
                .add(engine.delivered());
                reg.gauge(
                    "rp_engine_peak_queue_depth",
                    &[],
                    "Peak length of the engine's pending-event queue",
                )
                .set(engine.peak_queue_depth() as f64);
                reg.snapshot()
            }),
            telemetry: telemetry.map(|tel| tel.snapshot()),
            lineage: lineage.map(|lin| lin.snapshot()),
            serving: serving.map(|s| s.borrow().report()),
        };
        let stats = EngineStats {
            delivered: engine.delivered(),
            peak_queue: engine.peak_queue_depth(),
            engine_s,
        };
        (report, stats)
    }
}

/// The simulated system's outputs: correctness data, not performance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Model {
    pub makespan_s: f64,
    /// The paper's task throughput (launch-active average, tasks/s).
    pub tasks_per_s: f64,
    pub utilization: f64,
    pub done: u64,
    pub shed: u64,
    pub ttl_p99_s: f64,
    /// Hash over every task record, instance record and the figures above.
    pub digest: u64,
}

/// Digest a report's model outputs.
pub fn model(report: &RunReport) -> Model {
    let d = rp_analytics::digest(report);
    let (shed, ttl_p99_s) = report
        .serving
        .as_ref()
        .map_or((0, 0.0), |s| (s.shed, s.slo.launch_p99));
    let mut h = Hash64::new();
    let t = |x: Option<SimTime>| x.map_or(u64::MAX, SimTime::as_micros);
    for r in &report.tasks {
        h.word(r.uid.0);
        h.word(r.state as u64);
        h.word(r.backend.map_or(u64::MAX, |b| b as u64));
        h.word(r.partition.map_or(u64::MAX, u64::from));
        h.word(r.submitted.as_micros());
        for x in [
            r.staged,
            r.scheduled,
            r.backend_accepted,
            r.exec_start,
            r.exec_end,
        ] {
            h.word(t(x));
        }
        h.word(u64::from(r.retries));
    }
    for i in &report.instances {
        h.word(i.kind as u64);
        h.word(u64::from(i.partition));
        h.word(t(i.srun_acquired));
        h.word(t(i.ready));
    }
    h.word(report.end.as_micros());
    let done = d.done as u64;
    for x in [d.makespan_s, d.thr_avg, d.util_cores, ttl_p99_s] {
        h.word(x.to_bits());
    }
    h.word(done);
    h.word(shed);
    Model {
        makespan_s: d.makespan_s,
        tasks_per_s: d.thr_avg,
        utilization: d.util_cores,
        done,
        shed,
        ttl_p99_s,
        digest: h.finish(),
    }
}

/// Task books of one rep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Books {
    /// Workload tasks plus offered serving requests.
    pub offered: u64,
    pub done: u64,
    pub failed: u64,
    pub canceled: u64,
    pub shed: u64,
}

/// Check task conservation: every offered task ends `Done`, `Failed`,
/// `Canceled` or shed, and none is left in flight.
pub fn conservation(cell: &Cell, report: &RunReport) -> Result<Books, String> {
    let mut b = Books {
        offered: cell.batch_len(),
        done: 0,
        failed: 0,
        canceled: 0,
        shed: 0,
    };
    let mut admitted = 0;
    if let Some(s) = &report.serving {
        if s.queued != 0 {
            return Err(format!("{} serving requests still queued", s.queued));
        }
        b.offered += s.offered;
        b.shed = s.shed;
        admitted = s.admitted;
    }
    for r in &report.tasks {
        match r.state {
            TaskState::Done => b.done += 1,
            TaskState::Failed => b.failed += 1,
            TaskState::Canceled => b.canceled += 1,
            s => return Err(format!("task {} left non-terminal in {s:?}", r.uid.0)),
        }
    }
    let recorded = report.tasks.len() as u64;
    if recorded != cell.batch_len() + admitted {
        return Err(format!(
            "report holds {recorded} tasks, expected {} workload + {admitted} admitted",
            cell.batch_len()
        ));
    }
    if b.offered != b.done + b.failed + b.canceled + b.shed {
        return Err(format!("books do not balance: {b:?}"));
    }
    Ok(b)
}

/// What serialising one rep's recorder artifacts cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct Export {
    pub profiler_s: f64,
    pub metrics_s: f64,
    pub telemetry_s: f64,
    pub lineage_s: f64,
    pub bytes: u64,
    /// Hash over every artifact, in a fixed order.
    pub digest: u64,
}

impl Export {
    pub fn total_s(&self) -> f64 {
        self.profiler_s + self.metrics_s + self.telemetry_s + self.lineage_s
    }
}

/// Serialise in memory everything the harness's `write_profile`,
/// `write_metrics`, `write_telemetry` and `write_lineage` write to disk.
/// Only the serialisation is timed; hashing each artifact is not.
pub fn export(label: &str, report: &RunReport) -> Export {
    let mut ex = Export::default();
    let mut h = Hash64::new();
    let mut take = |docs: &[String]| {
        for d in docs {
            ex.bytes += d.len() as u64;
            h.bytes(d.as_bytes());
        }
    };
    if let Some(p) = &report.profile {
        let t = Instant::now();
        let docs = [p.csv(), p.chrome_trace()];
        ex.profiler_s = t.elapsed().as_secs_f64();
        take(&docs);
    }
    if let Some(snap) = &report.metrics {
        let t = Instant::now();
        let cp = rp_analytics::critical_path(&snap.spans);
        let docs = [
            format!(
                "{}{}# EOF\n",
                snap.openmetrics_body(),
                cp.openmetrics_body()
            ),
            format!("{}\n{}", snap.summary_table(), cp.summary_table()),
        ];
        ex.metrics_s = t.elapsed().as_secs_f64();
        take(&docs);
    }
    if let Some(tel) = &report.telemetry {
        let t = Instant::now();
        let cp = report
            .metrics
            .as_ref()
            .map(|snap| rp_analytics::critical_path(&snap.spans));
        let docs = [
            tel.timeseries_jsonl(),
            tel.flight_recorder_jsonl(),
            rp_analytics::render_dashboard(label, tel, cp.as_ref(), report.serving.as_ref()),
        ];
        ex.telemetry_s = t.elapsed().as_secs_f64();
        take(&docs);
    }
    if let Some(lin) = &report.lineage {
        let t = Instant::now();
        let rep = rp_analytics::blame_report(lin);
        let docs = [lin.to_jsonl(), rp_analytics::render_report(label, &rep)];
        ex.lineage_s = t.elapsed().as_secs_f64();
        take(&docs);
    }
    ex.digest = h.finish();
    ex
}

/// A fast 64-bit hash for equality checks on large outputs (not a
/// cryptographic or HashDoS-resistant hash).
pub struct Hash64(u64);

impl Hash64 {
    pub fn new() -> Hash64 {
        Hash64(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    pub fn bytes(&mut self, b: &[u8]) {
        let mut chunks = b.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        for &x in chunks.remainder() {
            self.word(u64::from(x));
        }
        self.word(b.len() as u64);
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}
