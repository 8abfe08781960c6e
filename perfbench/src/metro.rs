//! The `metro` workload: `comma_bench::scale::build_metro`'s sharded city —
//! 32 cells, each a Service Proxy running the standard header chain over
//! Gilbert-lossy 8 Mbit/s wireless with 2,000 fluid background users on
//! the downlink (64k in all) and 8 foreground bulk flows — on a fixed 2
//! workers. Max-min fluid re-solve epochs do most of the work, and shard
//! barriers are exercised; per-packet proxy work is small.
//!
//! Every run simulates the fixed horizon, its completion criterion, and
//! every foreground flow must finish before it; fluid epochs, the bulk of
//! the work, tick on a fixed grid whatever the flows do. The offered
//! background load stays below cell capacity: at 16k users per cell the
//! fluid coupling starves foreground admission, a known defect this
//! workload does not exercise.

use std::sync::Arc;
use std::time::Instant;

use comma::topo::ShardedWorld;
use comma_bench::scale::build_metro;
use comma_netsim::node::NodeId;
use comma_netsim::sim::Simulator;
use comma_netsim::time::SimTime;
use comma_proxy::ServiceProxy;
use comma_tcp::apps::Sink;

use crate::host::Stopwatch;
use crate::trace::{self, Tally};
use crate::{FlowEnd, Outcome, ProxyTrace, Run, SimCounts, Trace};

/// Worker threads, fixed by the workload rather than the host.
pub const WORKERS: usize = 2;

/// Simulated time every run covers; flows still incomplete then fail.
pub const HORIZON: SimTime = SimTime::from_secs(12);

/// The metro workload's size.
#[derive(Clone, Debug)]
pub struct MetroParams {
    /// Wireless cells, one shard each.
    pub cells: usize,
    /// Fluid background users per cell.
    pub bg_users_per_cell: usize,
    /// Foreground bulk flows per cell.
    pub fg_flows_per_cell: usize,
    /// Bytes each foreground flow sends.
    pub bytes_per_flow: u64,
}

impl MetroParams {
    /// `metro` at benchmark size.
    pub fn full() -> MetroParams {
        MetroParams {
            cells: 32,
            bg_users_per_cell: 2_000,
            fg_flows_per_cell: 8,
            bytes_per_flow: 16 * 1024,
        }
    }

    /// The same workload at self-test size.
    pub fn small(self) -> MetroParams {
        MetroParams {
            cells: 2,
            bg_users_per_cell: 300,
            fg_flows_per_cell: 2,
            bytes_per_flow: 4 * 1024,
        }
    }
}

/// Every Service Proxy in a shard.
fn proxies(sim: &mut Simulator) -> Vec<NodeId> {
    (0..sim.node_count())
        .map(NodeId)
        .filter(|&id| sim.node_mut::<ServiceProxy>(id).is_some())
        .collect()
}

fn build(p: &MetroParams, seed: u64) -> ShardedWorld {
    build_metro(
        p.cells,
        p.bg_users_per_cell,
        p.fg_flows_per_cell,
        p.bytes_per_flow,
        seed,
        WORKERS,
        false,
    )
}

/// Builds the city on `seed` and drops it (joining its workers); returns
/// the build's seconds.
pub fn setup(p: &MetroParams, seed: u64) -> f64 {
    let clock = Instant::now();
    let world = build(p, seed);
    let setup_s = clock.elapsed().as_secs_f64();
    drop(world);
    setup_s
}

/// Runs the metro workload once.
pub fn run(p: &MetroParams, seed: u64, traced: bool) -> Run {
    let mut world = build(p, seed);

    let shards = world.runner.shard_count();
    let tallies: Vec<Arc<Tally>> = (0..shards).map(|_| Arc::default()).collect();
    if traced {
        for (shard, tally) in tallies.iter().enumerate() {
            let tally = Arc::clone(tally);
            world.runner.with_shard(shard, move |sim| {
                for id in proxies(sim) {
                    sim.with_node::<ServiceProxy, _>(id, |sp| {
                        trace::install(&mut sp.engine, &tally)
                    });
                }
            });
        }
        world.attach_oracle();
    }

    let clock = Stopwatch::start();
    world.run_until(HORIZON);
    let (wall_s, cpu_s, steal_s) = clock.stop();

    let mut flows = Vec::with_capacity(p.cells * p.fg_flows_per_cell);
    for cell in 0..p.cells {
        for sink in world.sink_ids(cell) {
            let (delivered, last_data) = world
                .mobile_app::<Sink, _>(cell, sink, |s| (s.bytes_received as u64, s.last_data_at));
            flows.push(FlowEnd {
                start: SimTime::ZERO,
                last_data,
                app_bytes: p.bytes_per_flow,
                complete: delivered == p.bytes_per_flow,
            });
        }
    }
    let mut counts = SimCounts::default();
    for shard in 0..shards {
        counts.merge(world.runner.with_shard(shard, SimCounts::read));
    }
    let mut outcome = Outcome::from_flows(&flows, counts.wireless_bytes());
    counts.record(&mut outcome);
    let stats = world.stats();
    for (name, v) in [
        ("shard.windows", stats.windows),
        ("shard.windows_skipped", stats.windows_skipped),
        ("shard.xfer_pkts", stats.xfer_pkts),
    ] {
        outcome.counts.insert(name.into(), v as f64);
    }

    let trace = traced.then(|| {
        let mut readings = ProxyTrace::default();
        for (shard, tally) in tallies.iter().enumerate() {
            let tally = Arc::clone(tally);
            let r = world.runner.with_shard(shard, move |sim| {
                let mut shard_readings = ProxyTrace::default();
                for id in proxies(sim) {
                    sim.with_node::<ServiceProxy, _>(id, |sp| shard_readings.add_engine(sp));
                }
                shard_readings.add_tally(&tally);
                shard_readings
            });
            readings.merge(&r);
        }
        let mut trace = Trace::default();
        readings.record(&mut trace);
        trace.times.insert(
            "shard.barrier_wait_s".into(),
            stats.barrier_wait_ns as f64 * 1e-9,
        );
        let oracle = world.oracle_report();
        trace
            .counts
            .insert("oracle.violations".into(), oracle.total_violations as f64);
        trace
    });
    Run {
        wall_s,
        cpu_s,
        steal_s,
        workers: world.runner.worker_count(),
        outcome,
        trace,
    }
}
