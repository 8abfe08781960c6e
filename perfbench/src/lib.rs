//! The Comma benchmark: four workloads, each putting a different layer of
//! the reproduction in charge, measured end to end in host time and
//! simulated time, plus a separate traced run that splits the host time
//! by layer from the outside in.
//!
//! - `cell_snoop` ([`cell`]): one cell, 256 bulk flows through the
//!   standard header chain over lossy, churning wireless.
//! - `cell_compress` ([`cell`]): one double-proxy cell, 256 flows of text
//!   through the TTSF compression service.
//! - `metro` ([`metro`]): 32 sharded cells over 64k fluid background users.
//! - `mc_ttsf` ([`mc`]): the shipped exhaustive model-checker exploration.
//!
//! [`measure`] runs one workload repeatedly for a fixed time and reduces
//! the runs to the report `main` prints.

pub mod cell;
pub mod host;
pub mod json;
pub mod mc;
pub mod metro;
pub mod trace;

use std::collections::BTreeMap;
use std::time::Instant;

use comma_netsim::link::{ChannelId, LinkKind};
use comma_netsim::node::NodeId;
use comma_netsim::sim::Simulator;
use comma_netsim::time::SimTime;
use comma_proxy::ServiceProxy;
use comma_tcp::host::Host;

use json::Json;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["cell_snoop", "cell_compress", "metro", "mc_ttsf"];

/// The seed the benchmark is tuned on, and one held out for checking a
/// claimed gain on inputs it was not developed against.
pub const DEFAULT_SEED: u64 = 1;
/// See [`DEFAULT_SEED`].
pub const HELD_OUT_SEED: u64 = 7919;

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 9] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("states_per_s", "1/s"),
    ("fct_p50_ms", "sim_ms"),
    ("fct_p95_ms", "sim_ms"),
    ("goodput_mbps", "Mbit/s"),
    ("wireless_bytes_ratio", "ratio"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run (zero
/// where the workload bypasses the layer); the last six are derived from
/// the others and from the untraced runs.
pub const PER_LAYER: [(&str, &str); 58] = [
    ("sched.events", "count"),
    ("sched.timers_scheduled", "count"),
    ("sched.timers_cancelled", "count"),
    ("link.wireless_pkts", "count"),
    ("link.queue_drops", "count"),
    ("link.loss_drops", "count"),
    ("fault.injected", "count"),
    ("tcp.retrans_segs", "count"),
    ("engine.pkts", "count"),
    ("engine.batch_depth_avg", "pkts"),
    ("engine.dispatch_s", "s"),
    ("engine.self_s", "s"),
    ("filter.tcp.calls", "count"),
    ("filter.tcp.self_s", "s"),
    ("filter.tcp.injected", "count"),
    ("filter.tcp.modified", "count"),
    ("filter.tcp.dropped", "count"),
    ("filter.snoop.calls", "count"),
    ("filter.snoop.self_s", "s"),
    ("filter.snoop.injected", "count"),
    ("filter.snoop.modified", "count"),
    ("filter.snoop.dropped", "count"),
    ("filter.wsize.calls", "count"),
    ("filter.wsize.self_s", "s"),
    ("filter.wsize.injected", "count"),
    ("filter.wsize.modified", "count"),
    ("filter.wsize.dropped", "count"),
    ("filter.compress.calls", "count"),
    ("filter.compress.self_s", "s"),
    ("filter.compress.injected", "count"),
    ("filter.compress.modified", "count"),
    ("filter.compress.dropped", "count"),
    ("filter.decompress.calls", "count"),
    ("filter.decompress.self_s", "s"),
    ("filter.decompress.injected", "count"),
    ("filter.decompress.modified", "count"),
    ("filter.decompress.dropped", "count"),
    ("fluid.epochs", "count"),
    ("fluid.users", "count"),
    ("fluid.active", "count"),
    ("shard.windows", "count"),
    ("shard.windows_skipped", "count"),
    ("shard.xfer_pkts", "count"),
    ("shard.barrier_wait_s", "s"),
    ("mc.states_explored", "count"),
    ("mc.states_pruned", "count"),
    ("mc.steps", "count"),
    ("mc.dedup_ratio", "ratio"),
    ("mc.snapshot_s", "s"),
    ("mc.state_hash_s", "s"),
    ("mc.check_s", "s"),
    ("oracle.violations", "count"),
    ("mc.snapshot_us", "us"),
    ("mc.state_hash_us", "us"),
    ("mc.step_us", "us"),
    ("sim_core_s", "s"),
    ("trace.thread_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];
/// Everything one run reports apart from host time. Each value is a
/// function of the workload and seed alone, so two runs on one seed —
/// traced or not — must agree on every bit.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Outcome {
    /// Operations attempted: the flows, plus the exploration for
    /// `mc_ttsf`.
    pub attempted: u64,
    /// Operations that failed: incomplete or corrupted flows, an unclean
    /// or non-exhaustive exploration.
    pub failed: u64,
    /// Median flow completion time, simulated milliseconds.
    pub fct_p50_ms: f64,
    /// 95th-percentile flow completion time, simulated milliseconds.
    pub fct_p95_ms: f64,
    /// Median per-flow goodput: a flow's application bytes over its
    /// completion time. (Aggregate bytes over the last byte's time would
    /// be set by the single slowest flow, which varies threefold between
    /// seeds.)
    pub goodput_mbps: f64,
    /// Bytes delivered over wireless links (both directions) per
    /// application byte delivered.
    pub wireless_bytes_ratio: f64,
    /// Simulator states reached: events processed by a forward run,
    /// distinct states visited by an exploration.
    pub states: u64,
    /// Deterministic per-layer counts, by [`PER_LAYER`] name.
    pub counts: BTreeMap<String, f64>,
}

/// The extra record of a traced run.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Host seconds per layer, summed over worker threads: `engine.*`,
    /// `filter.<kind>.self_s`, `shard.barrier_wait_s`, `mc.*_s`.
    pub times: BTreeMap<String, f64>,
    /// Deterministic counts only a trace can see (filter hook calls and
    /// accounting, oracle verdicts), by [`PER_LAYER`] name.
    pub counts: BTreeMap<String, f64>,
}

/// One run of a workload.
#[derive(Clone, Debug)]
pub struct Run {
    /// Host seconds from the first event to the completion criterion.
    pub wall_s: f64,
    /// Process CPU seconds over the same interval.
    pub cpu_s: f64,
    /// Steal seconds over the same interval: time the hypervisor kept the
    /// run's CPUs from running (see [`host::steal_seconds`]).
    pub steal_s: f64,
    /// Threads that executed the simulation.
    pub workers: usize,
    /// The deterministic results.
    pub outcome: Outcome,
    /// Traced runs only.
    pub trace: Option<Trace>,
}

/// One flow's end state, as its sink saw it.
#[derive(Clone, Copy, Debug)]
pub struct FlowEnd {
    /// When the flow's sender was scheduled to start.
    pub start: SimTime,
    /// Time of the sink's last payload byte.
    pub last_data: Option<SimTime>,
    /// Application bytes the flow carried.
    pub app_bytes: u64,
    /// Whether the flow completed intact: every byte delivered, and equal
    /// to what was sent where that is checked.
    pub complete: bool,
}

impl Outcome {
    /// Fills the flow-level results from every flow's end state and the
    /// bytes the wireless links delivered. Incomplete flows fail;
    /// completion times run from a flow's start to its last data byte and
    /// cover the rest.
    pub fn from_flows(flows: &[FlowEnd], wireless_bytes: u64) -> Outcome {
        let fct_ms: Vec<f64> = flows
            .iter()
            .filter(|f| f.complete)
            .filter_map(|f| {
                f.last_data
                    .map(|t| t.saturating_since(f.start).as_micros() as f64 / 1e3)
            })
            .collect();
        let goodput_mbps: Vec<f64> = flows
            .iter()
            .filter(|f| f.complete)
            .filter_map(|f| {
                let fct = f.last_data?.saturating_since(f.start).as_secs_f64();
                (fct > 0.0).then(|| f.app_bytes as f64 * 8.0 / fct / 1e6)
            })
            .collect();
        let app_bytes: u64 = flows.iter().map(|f| f.app_bytes).sum();
        let pct = |v: &[f64], p: f64| {
            if v.is_empty() {
                0.0
            } else {
                host::percentile(v, p)
            }
        };
        Outcome {
            attempted: flows.len() as u64,
            failed: (flows.len() - fct_ms.len()) as u64,
            fct_p50_ms: pct(&fct_ms, 50.0),
            fct_p95_ms: pct(&fct_ms, 95.0),
            goodput_mbps: pct(&goodput_mbps, 50.0),
            wireless_bytes_ratio: if app_bytes == 0 {
                0.0
            } else {
                wireless_bytes as f64 / app_bytes as f64
            },
            states: 0,
            counts: BTreeMap::new(),
        }
    }
}

/// Counters read from one simulator's public statistics; summed across
/// shards.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimCounts {
    events: u64,
    timers_scheduled: u64,
    timers_cancelled: u64,
    wireless_pkts: u64,
    wireless_bytes: u64,
    queue_drops: u64,
    loss_drops: u64,
    faults: u64,
    retrans_segs: u64,
    engine_pkts: u64,
    engine_batches: u64,
    engine_batch_pkts: u64,
    fluid_epochs: u64,
    fluid_users: u64,
    fluid_active: u64,
}

impl SimCounts {
    /// Reads every counter `sim` exposes: scheduler, channels and their
    /// fault models, TCP hosts, proxy engines, fluid populations.
    pub fn read(sim: &mut Simulator) -> SimCounts {
        let wheel = sim.sched_stats();
        let fluid = sim.fluid_totals();
        let mut c = SimCounts {
            events: sim.events_processed(),
            timers_scheduled: wheel.scheduled,
            timers_cancelled: wheel.cancelled,
            fluid_epochs: fluid.epochs,
            fluid_users: fluid.users,
            fluid_active: fluid.active,
            ..SimCounts::default()
        };
        for id in (0..sim.channel_count()).map(ChannelId) {
            let ch = sim.channel(id);
            c.queue_drops += ch.stats.queue_drops;
            c.loss_drops += ch.stats.loss_drops;
            if ch.params.kind == LinkKind::Wireless {
                c.wireless_pkts += ch.stats.delivered_pkts;
                c.wireless_bytes += ch.stats.delivered_bytes;
            }
            if let Some(f) = sim.fault_stats(id) {
                c.faults += f.reordered + f.duplicated + f.corrupt_drops + f.corrupt_delivered;
            }
        }
        for id in (0..sim.node_count()).map(NodeId) {
            if let Some(host) = sim.node_mut::<Host>(id) {
                c.retrans_segs += host.retrans_segs();
            } else if let Some(sp) = sim.node_mut::<ServiceProxy>(id) {
                c.engine_pkts += sp.engine.totals.pkts;
                c.engine_batches += sp.engine.totals.batches;
                c.engine_batch_pkts += sp.engine.totals.batch_pkts;
            }
        }
        c
    }

    /// Adds another simulator's counters.
    pub fn merge(&mut self, o: SimCounts) {
        self.events += o.events;
        self.timers_scheduled += o.timers_scheduled;
        self.timers_cancelled += o.timers_cancelled;
        self.wireless_pkts += o.wireless_pkts;
        self.wireless_bytes += o.wireless_bytes;
        self.queue_drops += o.queue_drops;
        self.loss_drops += o.loss_drops;
        self.faults += o.faults;
        self.retrans_segs += o.retrans_segs;
        self.engine_pkts += o.engine_pkts;
        self.engine_batches += o.engine_batches;
        self.engine_batch_pkts += o.engine_batch_pkts;
        self.fluid_epochs += o.fluid_epochs;
        self.fluid_users += o.fluid_users;
        self.fluid_active += o.fluid_active;
    }

    /// Bytes delivered over wireless channels.
    pub fn wireless_bytes(&self) -> u64 {
        self.wireless_bytes
    }

    /// Records the counters under their [`PER_LAYER`] names, and the
    /// processed events as the run's reached states.
    pub fn record(&self, out: &mut Outcome) {
        let batch_depth = if self.engine_batches == 0 {
            0.0
        } else {
            self.engine_batch_pkts as f64 / self.engine_batches as f64
        };
        for (name, v) in [
            ("sched.events", self.events as f64),
            ("sched.timers_scheduled", self.timers_scheduled as f64),
            ("sched.timers_cancelled", self.timers_cancelled as f64),
            ("link.wireless_pkts", self.wireless_pkts as f64),
            ("link.queue_drops", self.queue_drops as f64),
            ("link.loss_drops", self.loss_drops as f64),
            ("fault.injected", self.faults as f64),
            ("tcp.retrans_segs", self.retrans_segs as f64),
            ("engine.pkts", self.engine_pkts as f64),
            ("engine.batch_depth_avg", batch_depth),
            ("fluid.epochs", self.fluid_epochs as f64),
            ("fluid.users", self.fluid_users as f64),
            ("fluid.active", self.fluid_active as f64),
        ] {
            out.counts.insert(name.to_string(), v);
        }
        out.states = self.events;
    }
}

/// Per-proxy trace readings: the engine's dispatch seconds and per-kind
/// accounting, plus the hook tally of the proxy's wrappers.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProxyTrace {
    dispatch_s: f64,
    kinds: [(trace::KindTimes, [u64; 3]); trace::TRACED_KINDS.len()],
}

impl ProxyTrace {
    /// Adds a traced proxy's engine readings.
    pub fn add_engine(&mut self, sp: &ServiceProxy) {
        let (dispatch_s, accounting) = trace::engine_readout(&sp.engine);
        self.dispatch_s += dispatch_s;
        for (k, a) in self.kinds.iter_mut().zip(accounting) {
            for (x, y) in k.1.iter_mut().zip(a) {
                *x += y;
            }
        }
    }

    /// Adds the hook tally one set of wrappers shared.
    pub fn add_tally(&mut self, tally: &trace::Tally) {
        for (k, t) in self.kinds.iter_mut().zip(tally.read()) {
            k.0.calls += t.calls;
            k.0.dispatch_s += t.dispatch_s;
            k.0.other_s += t.other_s;
        }
    }

    /// Adds another set of readings.
    pub fn merge(&mut self, o: &ProxyTrace) {
        self.dispatch_s += o.dispatch_s;
        for (a, b) in self.kinds.iter_mut().zip(o.kinds.iter()) {
            a.0.calls += b.0.calls;
            a.0.dispatch_s += b.0.dispatch_s;
            a.0.other_s += b.0.other_s;
            for (x, y) in a.1.iter_mut().zip(b.1.iter()) {
                *x += y;
            }
        }
    }

    /// Records the engine and filter metrics into `trace`. `engine.self_s`
    /// is dispatch time minus the filter hooks that ran inside it.
    pub fn record(&self, trace: &mut Trace) {
        let mut in_dispatch = 0.0;
        for (kind, (times, acct)) in trace::TRACED_KINDS.iter().zip(self.kinds.iter()) {
            in_dispatch += times.dispatch_s;
            trace.times.insert(
                format!("filter.{kind}.self_s"),
                times.dispatch_s + times.other_s,
            );
            for (field, v) in [
                ("calls", times.calls),
                ("injected", acct[0]),
                ("modified", acct[1]),
                ("dropped", acct[2]),
            ] {
                trace
                    .counts
                    .insert(format!("filter.{kind}.{field}"), v as f64);
            }
        }
        trace
            .times
            .insert("engine.dispatch_s".into(), self.dispatch_s);
        trace
            .times
            .insert("engine.self_s".into(), self.dispatch_s - in_dispatch);
    }
}

/// A workload at a given size.
#[derive(Clone, Debug)]
pub enum Workload {
    /// See [`cell`].
    CellSnoop(cell::CellParams),
    /// See [`cell`].
    CellCompress(cell::CellParams),
    /// See [`metro`].
    Metro(metro::MetroParams),
    /// See [`mc`].
    McTtsf(comma_mc::McConfig),
}

impl Workload {
    /// The named workload at its benchmark size.
    pub fn full(name: &str) -> Option<Workload> {
        Some(match name {
            "cell_snoop" => Workload::CellSnoop(cell::CellParams::snoop()),
            "cell_compress" => Workload::CellCompress(cell::CellParams::compress()),
            "metro" => Workload::Metro(metro::MetroParams::full()),
            "mc_ttsf" => Workload::McTtsf(comma_mc::McConfig::default()),
            _ => return None,
        })
    }

    /// The named workload at a reduced size, for self-tests. `mc_ttsf`
    /// keeps the shipped exploration, whose state count is pinned.
    pub fn small(name: &str) -> Option<Workload> {
        Some(match Workload::full(name)? {
            Workload::CellSnoop(p) => Workload::CellSnoop(p.small()),
            Workload::CellCompress(p) => Workload::CellCompress(p.small()),
            Workload::Metro(p) => Workload::Metro(p.small()),
            mc => mc,
        })
    }

    /// Builds the workload's world on `seed` and drops it; returns the
    /// host seconds the build took.
    pub fn setup(&self, seed: u64) -> f64 {
        match self {
            Workload::CellSnoop(p) | Workload::CellCompress(p) => cell::setup(p, seed),
            Workload::Metro(p) => metro::setup(p, seed),
            Workload::McTtsf(cfg) => mc::setup(cfg),
        }
    }

    /// Threads a run of the workload uses.
    pub fn workers(&self) -> usize {
        match self {
            Workload::Metro(_) => metro::WORKERS,
            _ => 1,
        }
    }

    /// Runs the workload once on `seed`, traced or not.
    pub fn run(&self, seed: u64, traced: bool) -> Run {
        match self {
            Workload::CellSnoop(p) | Workload::CellCompress(p) => cell::run(p, seed, traced),
            Workload::Metro(p) => metro::run(p, seed, traced),
            Workload::McTtsf(cfg) => mc::run(cfg, traced),
        }
    }
}

/// What [`measure`] saw.
#[derive(Clone, Debug)]
pub struct Report {
    /// Untraced runs, in order.
    pub untraced: Vec<Run>,
    /// Traced runs, in order (empty unless tracing was asked for).
    pub traced: Vec<Run>,
    /// Set-up seconds per build, [`SETUP_SAMPLES`] samples.
    pub setups: Vec<f64>,
    /// CPUs the measurements took turns on: untraced run `i`, the traced
    /// run after it and set-up sample `i` ran on lane `i % lanes`. 1 where
    /// they were not pinned.
    pub lanes: usize,
    /// The process's resident-memory high-water mark after its first run,
    /// MiB. Later runs only add allocator fragmentation, which with
    /// `metro`'s worker threads varies by a quarter between processes.
    pub peak_rss_mb: f64,
    /// Reasons the outputs are not correct; empty when they are.
    pub problems: Vec<String>,
}

/// Set-up samples a report's `setup_s` median is taken over.
pub const SETUP_SAMPLES: usize = 31;

/// Build time each set-up sample covers at least: builds are repeated
/// (and the mean taken) until their summed time reaches it, so a build of
/// a few microseconds is not measured at the clock's noise floor.
const SETUP_SAMPLE_S: f64 = 1e-3;

/// Runs `workload` on `seed` for `seconds`, warm-up included: one
/// unmeasured warm-up run that fills caches and the allocator, then
/// measured runs while the next one (judged by the last) still ends in
/// time, and at least three. With `traced`, measured runs alternate
/// untraced and traced, and each traced run is checked against the
/// untraced outcome. Set-up, which is short, is sampled between the runs,
/// spread evenly over the measuring time so the samples see the host at
/// the same moments the runs do: [`SETUP_SAMPLES`] samples of
/// back-to-back builds. Freed memory goes back to the operating system
/// before every run and sample (see [`host::release_freed_memory`]).
///
/// A single-threaded workload's runs and samples take turns on the CPUs
/// the process may use, pinned one at a time (see [`Report::lanes`]): on a
/// shared virtual machine each virtual CPU runs at its own speed, which
/// changes by half for seconds to minutes at a time, independently of the
/// other's.
pub fn measure(workload: &Workload, seed: u64, seconds: f64, traced: bool) -> Report {
    const MIN_RUNS: usize = 3;
    // Two lanes: each keeps at least half the runs (and with
    // `MIN_RUNS` at least one), so a lane median is never of nothing.
    const MAX_LANES: usize = 2;
    let cpus: Vec<usize> = if workload.workers() == 1 {
        host::allowed_cpus().into_iter().take(MAX_LANES).collect()
    } else {
        Vec::new()
    };
    let pin_lane = |i: usize| {
        if !cpus.is_empty() {
            host::pin_to(&[cpus[i % cpus.len()]]);
        }
    };
    let t0 = Instant::now();
    let reference = workload.run(seed, false).outcome;
    let mut report = Report {
        untraced: Vec::new(),
        traced: Vec::new(),
        setups: Vec::new(),
        lanes: cpus.len().max(1),
        peak_rss_mb: host::peak_rss_mb(),
        problems: Vec::new(),
    };
    let setup_sample = || {
        host::release_freed_memory();
        let (mut total, mut builds) = (0.0, 0u32);
        while total < SETUP_SAMPLE_S {
            total += workload.setup(seed);
            builds += 1;
        }
        total / f64::from(builds)
    };
    let mut last_s = 0.0;
    while report.untraced.len() < MIN_RUNS || t0.elapsed().as_secs_f64() + last_s < seconds {
        let started = t0.elapsed().as_secs_f64();
        let due = (started / seconds * SETUP_SAMPLES as f64) as usize;
        while report.setups.len() < due.min(SETUP_SAMPLES) {
            pin_lane(report.setups.len());
            report.setups.push(setup_sample());
        }
        pin_lane(report.untraced.len());
        host::release_freed_memory();
        let run = workload.run(seed, false);
        if run.outcome != reference {
            report
                .problems
                .push("two untraced runs on one seed disagree".to_string());
        }
        report.untraced.push(run);
        if traced {
            host::release_freed_memory();
            let run = workload.run(seed, true);
            if run.outcome != reference {
                report
                    .problems
                    .push("the traced run's outcome differs from the untraced one".to_string());
            }
            report.traced.push(run);
        }
        last_s = t0.elapsed().as_secs_f64() - started;
    }
    while report.setups.len() < SETUP_SAMPLES {
        pin_lane(report.setups.len());
        report.setups.push(setup_sample());
    }
    if !cpus.is_empty() {
        host::pin_to(&cpus);
    }
    if reference.failed > 0 {
        report.problems.push(format!(
            "{} of {} operations failed",
            reference.failed, reference.attempted
        ));
    }
    for run in &report.traced {
        let trace = run.trace.as_ref().expect("traced runs carry a trace");
        let violations = trace
            .counts
            .get("oracle.violations")
            .copied()
            .unwrap_or(0.0);
        if violations > 0.0 {
            report.problems.push(format!(
                "the conformance oracle reported {violations} violations"
            ));
        }
        let core = sim_core_s(run);
        if core < 0.0 {
            report.problems.push(format!(
                "per-layer times exceed the run's thread time by {:.6} s",
                -core
            ));
        }
    }
    report.problems.sort();
    report.problems.dedup();
    report
}

/// Entries of [`Trace::times`] that include other entries' time:
/// dispatch covers engine self time and the filter hooks inside it, and
/// a model-checker step covers the whole proxy. Every other entry is a
/// disjoint self time.
const INCLUSIVE_TIMES: [&str; 2] = ["engine.dispatch_s", "mc.step_s"];

/// Thread-seconds of a traced run not attributed to any timed layer's
/// self time: the scheduler, link, TCP and fluid compute that cannot be
/// split from outside.
pub fn sim_core_s(run: &Run) -> f64 {
    let trace = run.trace.as_ref().expect("traced run");
    let attributed: f64 = trace
        .times
        .iter()
        .filter(|(k, _)| !INCLUSIVE_TIMES.contains(&k.as_str()))
        .map(|(_, v)| v)
        .sum();
    run.wall_s * run.workers as f64 - attributed
}

fn median_of(runs: &[Run], f: impl Fn(&Run) -> f64) -> f64 {
    host::median(&runs.iter().map(f).collect::<Vec<_>>())
}

/// The result line: `correct`, `attempted`, `failed` and the metrics the
/// run type prints — the end-to-end set untraced, the per-layer set
/// traced. Deterministic values are the same in every run. End-to-end
/// host times are medians over the measured runs (`setup_s` over the
/// set-up samples) on the fastest lane — the CPU that was least slowed by
/// other tenants of the host; per-layer times are medians over all traced
/// runs. `wall_s` leaves out steal time: on a shared virtual machine the
/// hypervisor withholds CPUs for up to three quarters of a run, which a
/// dedicated host never does and the program cannot change.
pub fn result_json(report: &Report, traced: bool) -> Json {
    let first = &report.untraced[0];
    let outcome = &first.outcome;
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    if traced {
        for (name, v) in &outcome.counts {
            values.insert(name.clone(), *v);
        }
        let tr = &report.traced;
        let first_trace = tr[0].trace.as_ref().expect("traced run");
        for (name, v) in &first_trace.counts {
            values.insert(name.clone(), *v);
        }
        for name in first_trace.times.keys() {
            let v = median_of(tr, |r| r.trace.as_ref().expect("traced run").times[name]);
            values.insert(name.clone(), v);
        }
        for (per_call, total, count) in [
            ("mc.snapshot_us", "mc.snapshot_s", "mc.snapshots"),
            ("mc.state_hash_us", "mc.state_hash_s", "mc.state_hashes"),
            ("mc.step_us", "mc.step_s", "mc.steps"),
        ] {
            let n = values.get(count).copied().unwrap_or(0.0);
            let t = values.get(total).copied().unwrap_or(0.0);
            values.insert(per_call.into(), if n == 0.0 { 0.0 } else { t / n * 1e6 });
        }
        values.insert("sim_core_s".into(), median_of(tr, sim_core_s));
        values.insert(
            "trace.thread_s".into(),
            median_of(tr, |r| r.wall_s * r.workers as f64),
        );
        values.insert(
            "trace.overhead_ratio".into(),
            median_of(tr, |r| r.wall_s) / median_of(&report.untraced, |r| r.wall_s),
        );
    } else {
        let lanes = report.lanes;
        let untraced = |f: fn(&Run) -> f64| -> Vec<f64> { report.untraced.iter().map(f).collect() };
        // Steal is summed over CPUs, so two CPUs withheld at once can
        // subtract more than the run lost; no run takes less than its CPU
        // time spread over its workers.
        let wall = host::fastest_lane_median(
            &untraced(|r| (r.wall_s - r.steal_s).max(r.cpu_s / r.workers as f64)),
            lanes,
        );
        values.insert("wall_s".into(), wall);
        values.insert(
            "setup_s".into(),
            host::fastest_lane_median(&report.setups, lanes),
        );
        values.insert(
            "cpu_s".into(),
            host::fastest_lane_median(&untraced(|r| r.cpu_s), lanes),
        );
        values.insert("peak_rss_mb".into(), report.peak_rss_mb);
        values.insert("states_per_s".into(), outcome.states as f64 / wall);
        values.insert("fct_p50_ms".into(), outcome.fct_p50_ms);
        values.insert("fct_p95_ms".into(), outcome.fct_p95_ms);
        values.insert("goodput_mbps".into(), outcome.goodput_mbps);
        values.insert("wireless_bytes_ratio".into(), outcome.wireless_bytes_ratio);
    }
    let listed: Vec<(&str, &str)> = if traced {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    let mut metrics = Json::obj();
    for (name, unit) in listed {
        let v = values.get(name).copied().unwrap_or(0.0);
        metrics = metrics.with(name, Json::obj().with("value", v).with("unit", unit));
    }
    // A traced run adds one operation of its own: the conformance
    // oracle's verdict, which fails on any violation.
    let verdicts = report.traced.len() as u64;
    let rejected = report
        .traced
        .iter()
        .filter(|r| {
            let trace = r.trace.as_ref().expect("traced run");
            trace
                .counts
                .get("oracle.violations")
                .is_some_and(|&v| v > 0.0)
        })
        .count() as u64;
    let runs = (report.untraced.len() + report.traced.len()) as u64;
    Json::obj()
        .with("correct", report.problems.is_empty())
        .with("attempted", outcome.attempted * runs + verdicts)
        .with("failed", outcome.failed * runs + rejected)
        .with("metrics", metrics)
}
