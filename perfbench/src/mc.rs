//! The `mc_ttsf` workload: `comma-mc`'s shipped exhaustive exploration
//! ([`comma_mc::McConfig::default`]: two crossing flows through a
//! compressing TTSF, every fire order and one fault per path). The same
//! simulator, TCP and TTSF code runs through snapshot-clone and canonical
//! hashing instead of forward runs, so a change that makes nodes, wheels
//! or engines heavier to clone or hash shows here. The exploration is
//! seed-free; the seed argument is ignored.
//!
//! The untraced run times [`comma_mc::explore`] itself; set-up is
//! [`comma_mc::build_scenario`]. The traced run repeats the explorer's
//! depth-first search from this file through the same public calls
//! (`Simulator::snapshot`, `state_hash`, `mc_options`, `mc_step` and
//! `comma_mc::check_invariants`), timing each kind of call, and must
//! reach exactly the explorer's counts. The simulated-time metrics come
//! from one forward run of the scenario — the schedule a plain
//! simulation takes.

use std::sync::Arc;
use std::time::Instant;

use comma::topology::addrs;
use comma_mc::scenario::arm_mutations;
use comma_mc::{build_scenario, check_invariants, explore, McConfig};
use comma_netsim::node::NodeId;
use comma_netsim::sim::{McAction, McOption, Simulator};
use comma_netsim::time::SimTime;
use comma_proxy::ServiceProxy;
use comma_rt::FnvHashSet;
use comma_tcp::apps::Sink;
use comma_tcp::host::{AppId, Host};

use crate::host::Stopwatch;
use crate::trace::{self, Tally};
use crate::{FlowEnd, Outcome, ProxyTrace, Run, SimCounts, Trace};

/// Builds the scenario and drops it; returns the build's seconds.
pub fn setup(cfg: &McConfig) -> f64 {
    let clock = Instant::now();
    let world = build_scenario(cfg);
    let setup_s = clock.elapsed().as_secs_f64();
    drop(world);
    setup_s
}

/// Runs the exploration once.
pub fn run(cfg: &McConfig, traced: bool) -> Run {
    let clock = Stopwatch::start();
    let (counts, trace) = if traced {
        let (counts, trace) = Mirror::new(cfg.clone()).run();
        (counts, Some(trace))
    } else {
        let report = explore(cfg);
        let counts = Counts {
            explored: report.states_explored,
            pruned: report.states_pruned,
            steps: report.steps_executed,
            clean: report.exhausted_clean(),
        };
        (counts, None)
    };
    let (wall_s, cpu_s, steal_s) = clock.stop();

    let mut outcome = forward_run(cfg);
    outcome.attempted += 1;
    outcome.failed += u64::from(!counts.clean);
    outcome.states = counts.explored;
    let seen = counts.explored + counts.pruned;
    for (name, v) in [
        ("mc.states_explored", counts.explored as f64),
        ("mc.states_pruned", counts.pruned as f64),
        ("mc.steps", counts.steps as f64),
        (
            "mc.dedup_ratio",
            if seen == 0 {
                0.0
            } else {
                counts.pruned as f64 / seen as f64
            },
        ),
    ] {
        outcome.counts.insert(name.into(), v);
    }
    Run {
        wall_s,
        cpu_s,
        steal_s,
        workers: 1,
        outcome,
        trace,
    }
}

/// The scenario's flows run forward in the first-enabled fire order:
/// flow 0 wired → mobile into the mobile's first app, flow 1 mobile →
/// wired into the wired host's second app (see [`McConfig::flows`]). The
/// compressing TTSF has no decompressor on this path, so a sink receives
/// the compressed stream: a flow is complete when its sink has seen the
/// sender's close.
fn forward_run(cfg: &McConfig) -> Outcome {
    let mut world = build_scenario(cfg);
    world.sim.run_until(SimTime::from_secs(60));
    let sinks = [(addrs::MOBILE, AppId(0)), (addrs::WIRED, AppId(1))];
    let flows: Vec<FlowEnd> = sinks[..cfg.flows]
        .iter()
        .map(|&(addr, app)| {
            let node = world.sim.node_by_addr(addr).expect("scenario host");
            let (closed, last_data) = world.sim.with_node::<Host, _>(node, |h| {
                let s = h.app_mut::<Sink>(app);
                (s.closed > 0, s.last_data_at)
            });
            FlowEnd {
                start: SimTime::ZERO,
                last_data,
                app_bytes: cfg.transfer_bytes as u64,
                complete: closed,
            }
        })
        .collect();
    let wireless = SimCounts::read(&mut world.sim).wireless_bytes();
    Outcome::from_flows(&flows, wireless)
}

/// What an exploration covered.
struct Counts {
    explored: u64,
    pruned: u64,
    steps: u64,
    clean: bool,
}

/// The explorer's depth-first search, repeated with every call into the
/// simulator timed.
struct Mirror {
    cfg: McConfig,
    visited: FnvHashSet<u64>,
    counts: Counts,
    budget_exhausted: bool,
    violation: bool,
    snapshots: u64,
    hashes: u64,
    snapshot_s: f64,
    hash_s: f64,
    step_s: f64,
    check_s: f64,
}

impl Mirror {
    fn new(cfg: McConfig) -> Mirror {
        Mirror {
            cfg,
            visited: FnvHashSet::default(),
            counts: Counts {
                explored: 0,
                pruned: 0,
                steps: 0,
                clean: false,
            },
            budget_exhausted: false,
            violation: false,
            snapshots: 0,
            hashes: 0,
            snapshot_s: 0.0,
            hash_s: 0.0,
            step_s: 0.0,
            check_s: 0.0,
        }
    }

    fn run(mut self) -> (Counts, Trace) {
        let mut world = build_scenario(&self.cfg);
        let proxy = world.proxy;
        let tally = Arc::new(Tally::default());
        world
            .sim
            .with_node::<ServiceProxy, _>(proxy, |sp| trace::install(&mut sp.engine, &tally));
        let root = self.hash(&world.sim);
        self.visited.insert(root);
        self.counts.explored = 1;
        if self.check(&mut world.sim, proxy) {
            self.walk(&mut world.sim, proxy, 0, 0);
        }
        self.counts.clean = !self.violation && !self.budget_exhausted;

        let mut readings = ProxyTrace::default();
        world
            .sim
            .with_node::<ServiceProxy, _>(proxy, |sp| readings.add_engine(sp));
        readings.add_tally(&tally);
        let mut trace = Trace::default();
        readings.record(&mut trace);
        for (name, v) in [
            ("mc.snapshot_s", self.snapshot_s),
            ("mc.state_hash_s", self.hash_s),
            ("mc.step_s", self.step_s),
            ("mc.check_s", self.check_s),
        ] {
            trace.times.insert(name.into(), v);
        }
        for (name, v) in [
            ("mc.snapshots", self.snapshots),
            ("mc.state_hashes", self.hashes),
            ("oracle.violations", u64::from(self.violation)),
        ] {
            trace.counts.insert(name.into(), v as f64);
        }
        (self.counts, trace)
    }

    fn stop(&self) -> bool {
        self.violation || self.budget_exhausted
    }

    fn walk(&mut self, sim: &mut Simulator, proxy: NodeId, mut depth: usize, mut faults: usize) {
        loop {
            if self.stop() || depth >= self.cfg.max_depth {
                return;
            }
            let options = sim.mc_options();
            if options.is_empty() {
                return;
            }
            let choices = self.enumerate(&options, faults);
            if let [(index, action)] = choices[..] {
                if !self.apply(sim, proxy, index, action) {
                    return;
                }
                depth += 1;
                faults += usize::from(action != McAction::Deliver);
                if !self.note_state(sim) {
                    return;
                }
                continue;
            }
            for (index, action) in choices {
                if self.stop() {
                    return;
                }
                let t = Instant::now();
                let snapshot = sim.snapshot();
                self.snapshot_s += t.elapsed().as_secs_f64();
                self.snapshots += 1;
                let Ok(mut branch) = snapshot else {
                    self.violation = true;
                    return;
                };
                if self.apply(&mut branch, proxy, index, action) && self.note_state(&branch) {
                    let child_faults = faults + usize::from(action != McAction::Deliver);
                    self.walk(&mut branch, proxy, depth + 1, child_faults);
                }
            }
            return;
        }
    }

    /// Every fire order, plus fault placements on deliveries while the
    /// path's fault budget lasts.
    fn enumerate(&self, options: &[McOption], faults: usize) -> Vec<(usize, McAction)> {
        let mut out: Vec<(usize, McAction)> = options
            .iter()
            .map(|o| (o.index, McAction::Deliver))
            .collect();
        if faults < self.cfg.max_faults {
            for o in options.iter().filter(|o| o.is_delivery) {
                for action in [McAction::Drop, McAction::Duplicate, McAction::Reorder] {
                    out.push((o.index, action));
                }
            }
        }
        out
    }

    fn apply(
        &mut self,
        sim: &mut Simulator,
        proxy: NodeId,
        index: usize,
        action: McAction,
    ) -> bool {
        self.counts.steps += 1;
        if self.counts.steps >= self.cfg.step_budget {
            self.budget_exhausted = true;
        }
        let t = Instant::now();
        let stepped = sim.mc_step(index, action);
        self.step_s += t.elapsed().as_secs_f64();
        if stepped.is_err() {
            self.violation = true;
            return false;
        }
        if self.cfg.mutate_skip_ack_translation {
            arm_mutations(sim, proxy);
        }
        self.check(sim, proxy) && !self.budget_exhausted
    }

    /// Checks the per-step invariants; `false` on a violation.
    fn check(&mut self, sim: &mut Simulator, proxy: NodeId) -> bool {
        let t = Instant::now();
        let found = check_invariants(sim, proxy);
        self.check_s += t.elapsed().as_secs_f64();
        self.violation |= found.is_some();
        found.is_none()
    }

    fn hash(&mut self, sim: &Simulator) -> u64 {
        let t = Instant::now();
        let h = sim.state_hash();
        self.hash_s += t.elapsed().as_secs_f64();
        self.hashes += 1;
        h
    }

    /// Fingerprints the reached state; `true` when it is new.
    fn note_state(&mut self, sim: &Simulator) -> bool {
        let h = self.hash(sim);
        if self.visited.insert(h) {
            self.counts.explored += 1;
            true
        } else {
            self.counts.pruned += 1;
            false
        }
    }
}
