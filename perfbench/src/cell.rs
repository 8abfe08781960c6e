//! The two single-cell workloads, on the standard [`CommaBuilder`]
//! deployment: a wired host sends one bulk flow to each of the mobile's
//! sinks through the Service Proxy, flow `i` starting at `i × spacing`
//! plus a seeded jitter below `spacing`. Every sender streams the same
//! text, and every 16th sink keeps what it receives so the run can check
//! it byte for byte.
//!
//! - `cell_snoop` ([`CellParams::snoop`]): the standard header chain
//!   (`tcp`, `snoop`, `wsize scale 90`, `tcp`) over Gilbert-lossy 8 Mbit/s
//!   wireless under the standard churn plan. Engine dispatch, snoop's
//!   local retransmits, TCP loss recovery and timer churn do the work.
//! - `cell_compress` ([`CellParams::compress`]): the double-proxy
//!   deployment, `tcp` + `compress lzss` on the Service Proxy and
//!   `decompress` on the mobile-side stub, over loss-free 8 Mbit/s
//!   wireless. The TTSF path (LZSS per byte, edit-map SEQ/ACK
//!   translation, checksum rewrite) does the work.
//!
//! Every run simulates a fixed horizon, its completion criterion, and
//! every flow must finish before it. A fixed horizon keeps the host work
//! of a run independent of how late the seed's slowest flow finishes:
//! the proxy's periodic filter timers keep ticking either way.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use comma::topology::{addrs, CommaBuilder, CommaWorld};
use comma_bench::scale::churn_plan;
use comma_netsim::link::{LinkParams, LossModel};
use comma_netsim::time::{SimDuration, SimTime};
use comma_proxy::ServiceProxy;
use comma_rt::{Rng, SeedableRng, SmallRng};
use comma_tcp::apps::{App, BulkSender, Sink};
use comma_tcp::host::Host;

use crate::host::Stopwatch;
use crate::trace::{self, Tally};
use crate::{FlowEnd, Outcome, ProxyTrace, Run, SimCounts, Trace};

/// The service chain a cell runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Service {
    /// `tcp`, `snoop`, `wsize scale 90`, `tcp` over lossy, churning wireless.
    Snoop,
    /// `tcp` + `compress lzss` on the SP, `decompress` on the stub, over
    /// loss-free wireless.
    Compress,
}

/// Wireless bandwidth of both cells, each direction.
const WIRELESS_BPS: u64 = 8_000_000;

/// Simulated time every run covers; flows still incomplete then fail.
/// The slowest `cell_snoop` flow finished by 23.2 s over 40 seeds.
pub const HORIZON: SimTime = SimTime::from_secs(40);

/// Every this-many-th flow is checked byte for byte.
const EXACT_EVERY: usize = 16;

/// A single-cell workload's shape and size.
#[derive(Clone, Debug)]
pub struct CellParams {
    /// The service chain.
    pub service: Service,
    /// Concurrent bulk flows.
    pub flows: usize,
    /// Bytes each flow sends.
    pub bytes_per_flow: usize,
    /// Mean gap between flow starts.
    pub spacing: SimDuration,
}

impl CellParams {
    /// `cell_snoop` at benchmark size.
    pub fn snoop() -> CellParams {
        CellParams {
            service: Service::Snoop,
            flows: 256,
            bytes_per_flow: 16 * 1024,
            spacing: SimDuration::from_millis(25),
        }
    }

    /// `cell_compress` at benchmark size: offered load stays below the
    /// standard 10 Mbit/s wired hop, so no queue on the path drops.
    pub fn compress() -> CellParams {
        CellParams {
            service: Service::Compress,
            flows: 256,
            bytes_per_flow: 32 * 1024,
            spacing: SimDuration::from_millis(40),
        }
    }

    /// The same workload at self-test size.
    pub fn small(self) -> CellParams {
        CellParams {
            flows: 16,
            bytes_per_flow: 4 * 1024,
            ..self
        }
    }
}

/// Bytes of [`text_byte`]'s repeating corpus.
const CORPUS_LEN: usize = 64 * 1024;

/// Byte `i` of the text every sender streams: words drawn by a fixed
/// generator from a small vocabulary, so the text compresses the way
/// prose does, with repeats inside LZSS's window but no period short
/// enough to make it trivial.
pub fn text_byte(i: usize) -> u8 {
    static CORPUS: OnceLock<Vec<u8>> = OnceLock::new();
    let corpus = CORPUS.get_or_init(|| {
        const WORDS: &str = "the wireless link proxy filter stream mobile host packet service \
            of and to a in is transparent communication management network bandwidth loss delay \
            user with for that data connection control TCP segment";
        let words: Vec<&str> = WORDS.split_whitespace().collect();
        let mut rng = SmallRng::seed_from_u64(0x7e47);
        let mut text = Vec::with_capacity(CORPUS_LEN + 32);
        while text.len() < CORPUS_LEN {
            let word = words[rng.gen_range(0..words.len() as u64) as usize];
            text.extend_from_slice(word.as_bytes());
            text.push(if rng.gen_range(0..12u64) == 0 {
                b'.'
            } else {
                b' '
            });
        }
        text.truncate(CORPUS_LEN);
        text
    });
    corpus[i % CORPUS_LEN]
}

/// Builds the cell and its flows; returns the world and each flow's
/// start time.
fn build(p: &CellParams, seed: u64) -> (CommaWorld, Vec<SimTime>) {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_0f10);
    let gap = p.spacing.as_micros();
    let starts: Vec<SimTime> = (0..p.flows as u64)
        .map(|i| SimTime::from_micros(i * gap + rng.gen_range(0..gap)))
        .collect();
    let mut senders: Vec<Box<dyn App>> = Vec::with_capacity(p.flows);
    let mut sinks: Vec<Box<dyn App>> = Vec::with_capacity(p.flows);
    for (i, start) in starts.iter().enumerate() {
        let port = 9000 + i as u16;
        senders.push(Box::new(
            BulkSender::new((addrs::MOBILE, port), p.bytes_per_flow)
                .with_pattern(text_byte)
                .with_start_after(SimDuration::from_micros(start.as_micros())),
        ));
        let sink = Sink::new(port);
        sinks.push(Box::new(if i % EXACT_EVERY == 0 {
            sink.with_capture(p.bytes_per_flow)
        } else {
            sink
        }));
    }
    let wireless = LinkParams::wireless()
        .with_bandwidth(WIRELESS_BPS)
        .with_queue_limit(128 * 1024);
    let wireless = match p.service {
        Service::Snoop => wireless.with_loss(LossModel::Gilbert {
            p_good_to_bad: 0.02,
            p_bad_to_good: 0.5,
            loss_good: 0.005,
            loss_bad: 0.15,
        }),
        Service::Compress => wireless,
    };
    let mut world = CommaBuilder::new(seed)
        .eem(false)
        .double_proxy(p.service == Service::Compress)
        .wireless(wireless.clone(), wireless)
        .build(senders, sinks);
    let to_mobile = format!("0.0.0.0 0 {} 0", addrs::MOBILE);
    match p.service {
        Service::Snoop => {
            for service in ["tcp", "snoop", "wsize", "tcp"] {
                let args = if service == "wsize" { " scale 90" } else { "" };
                world.sp(&format!("add {service} {to_mobile}{args}"));
            }
            world.apply_fault_plan(&churn_plan(seed ^ 0xc4e7));
        }
        Service::Compress => {
            world.sp(&format!("add tcp {to_mobile}"));
            world.sp(&format!("add compress {to_mobile} lzss"));
            world.stub_sp(&format!("add decompress {to_mobile}"));
        }
    }
    (world, starts)
}

/// Builds the cell on `seed` and drops it; returns the build's seconds.
pub fn setup(p: &CellParams, seed: u64) -> f64 {
    let clock = Instant::now();
    let world = build(p, seed);
    let setup_s = clock.elapsed().as_secs_f64();
    drop(world);
    setup_s
}

/// Runs a single-cell workload once.
pub fn run(p: &CellParams, seed: u64, traced: bool) -> Run {
    let (mut world, starts) = build(p, seed);

    let proxies: Vec<_> = [Some(world.proxy), world.stub]
        .into_iter()
        .flatten()
        .collect();
    let tallies: Vec<Arc<Tally>> = proxies.iter().map(|_| Arc::default()).collect();
    if traced {
        for (&sp, tally) in proxies.iter().zip(&tallies) {
            world
                .sim
                .with_node::<ServiceProxy, _>(sp, |sp| trace::install(&mut sp.engine, tally));
        }
        world.attach_oracle();
    }

    let clock = Stopwatch::start();
    world.run_until(HORIZON);
    let (wall_s, cpu_s, steal_s) = clock.stop();

    let mobile = world.mobile;
    let sinks = world.mobile_app_ids.clone();

    let flows: Vec<FlowEnd> = world.sim.with_node::<Host, _>(mobile, |h| {
        sinks
            .iter()
            .zip(&starts)
            .map(|(&id, &start)| {
                let s = h.app_mut::<Sink>(id);
                let exact = s.capture_limit == 0
                    || (s.capture.len() == s.bytes_received
                        && s.capture
                            .iter()
                            .enumerate()
                            .all(|(j, &b)| b == text_byte(j)));
                FlowEnd {
                    start,
                    last_data: s.last_data_at,
                    app_bytes: p.bytes_per_flow as u64,
                    complete: exact && s.bytes_received == p.bytes_per_flow,
                }
            })
            .collect()
    });
    let counts = SimCounts::read(&mut world.sim);
    let mut outcome = Outcome::from_flows(&flows, counts.wireless_bytes());
    counts.record(&mut outcome);

    let trace = traced.then(|| {
        let mut readings = ProxyTrace::default();
        for (&sp, tally) in proxies.iter().zip(&tallies) {
            world
                .sim
                .with_node::<ServiceProxy, _>(sp, |sp| readings.add_engine(sp));
            readings.add_tally(tally);
        }
        let mut trace = Trace::default();
        readings.record(&mut trace);
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
        workers: 1,
        outcome,
        trace,
    }
}
