//! The outside-in layer trace.
//!
//! A traced run replaces the factories of the filter kinds below, through
//! the proxy's public [`FilterEngine::catalog`], with factories whose
//! instances wrap the real filter and time every hook call. The wrapper
//! forwards every hook — `capabilities`, `observes_in`, the batch hooks,
//! snapshot cloning and state digests included — so the simulation it
//! runs is the untraced one; the benchmark checks that bit for bit. The
//! engine's own dispatch timing (`wall.dispatch_ns`) and per-kind filter
//! accounting come from its observability handle, which a traced run
//! enables on the engine alone.

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use comma_filters::basic::TcpHousekeeping;
use comma_filters::codec::Method;
use comma_filters::snoop::Snoop;
use comma_filters::transform::{Compressor, Decompressor};
use comma_filters::wsize::Wsize;
use comma_filters::Ttsf;
use comma_netsim::packet::Packet;
use comma_netsim::time::SimDuration;
use comma_obs::Obs;
use comma_proxy::batch::PacketBatch;
use comma_proxy::engine::FilterEngine;
use comma_proxy::filter::{Capabilities, Filter, FilterCtx, Priority, Verdict};
use comma_proxy::StreamKey;

/// The filter kinds a traced run times, in report order.
pub const TRACED_KINDS: [&str; 5] = ["tcp", "snoop", "wsize", "compress", "decompress"];

#[derive(Default)]
struct KindCells {
    calls: AtomicU64,
    dispatch_ns: AtomicU64,
    other_ns: AtomicU64,
}

/// Hook-call counts and times per traced kind, shared by every wrapper of
/// one simulator (one per shard, so workers never share a cache line).
#[derive(Default)]
pub struct Tally {
    kinds: [KindCells; TRACED_KINDS.len()],
}

/// One kind's share of a [`Tally`].
#[derive(Clone, Copy, Debug, Default)]
pub struct KindTimes {
    /// Hook calls.
    pub calls: u64,
    /// Seconds in the packet hooks (`on_in*`, `on_out*`, `on_removed`),
    /// which the engine calls inside its timed dispatch.
    pub dispatch_s: f64,
    /// Seconds in `insert` and `on_timer`, which run outside it.
    pub other_s: f64,
}

impl Tally {
    /// The counts and times so far, in [`TRACED_KINDS`] order.
    pub fn read(&self) -> [KindTimes; TRACED_KINDS.len()] {
        std::array::from_fn(|i| {
            let k = &self.kinds[i];
            KindTimes {
                calls: k.calls.load(Relaxed),
                dispatch_s: k.dispatch_ns.load(Relaxed) as f64 * 1e-9,
                other_s: k.other_ns.load(Relaxed) as f64 * 1e-9,
            }
        })
    }
}

/// A filter that times each call into the filter it wraps.
struct Timed {
    inner: Box<dyn Filter>,
    tally: Arc<Tally>,
    slot: usize,
}

impl Timed {
    fn timed<R>(&mut self, in_dispatch: bool, call: impl FnOnce(&mut dyn Filter) -> R) -> R {
        let t0 = Instant::now();
        let r = call(self.inner.as_mut());
        let ns = t0.elapsed().as_nanos() as u64;
        let cells = &self.tally.kinds[self.slot];
        cells.calls.fetch_add(1, Relaxed);
        let bucket = if in_dispatch {
            &cells.dispatch_ns
        } else {
            &cells.other_ns
        };
        bucket.fetch_add(ns, Relaxed);
        r
    }
}

impl Filter for Timed {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
    fn priority(&self) -> Priority {
        self.inner.priority()
    }
    fn capabilities(&self) -> Capabilities {
        self.inner.capabilities()
    }
    fn insert(&mut self, ctx: &mut FilterCtx<'_>, key: StreamKey) -> Vec<StreamKey> {
        self.timed(false, |f| f.insert(ctx, key))
    }
    fn on_in(&mut self, ctx: &mut FilterCtx<'_>, key: StreamKey, pkt: &Packet) {
        self.timed(true, |f| f.on_in(ctx, key, pkt))
    }
    fn observes_in(&self) -> bool {
        self.inner.observes_in()
    }
    fn on_out(&mut self, ctx: &mut FilterCtx<'_>, key: StreamKey, pkt: &mut Packet) -> Verdict {
        self.timed(true, |f| f.on_out(ctx, key, pkt))
    }
    fn on_in_batch(&mut self, ctx: &mut FilterCtx<'_>, key: StreamKey, pkts: &[Packet]) {
        self.timed(true, |f| f.on_in_batch(ctx, key, pkts))
    }
    fn on_out_batch(&mut self, ctx: &mut FilterCtx<'_>, key: StreamKey, batch: &mut PacketBatch) {
        self.timed(true, |f| f.on_out_batch(ctx, key, batch))
    }
    fn on_timer(&mut self, ctx: &mut FilterCtx<'_>, token: u64) {
        self.timed(false, |f| f.on_timer(ctx, token))
    }
    fn on_removed(&mut self, ctx: &mut FilterCtx<'_>) {
        self.timed(true, |f| f.on_removed(ctx))
    }
    fn as_any(&mut self) -> &mut dyn Any {
        self.inner.as_any()
    }
    fn clone_filter(&self) -> Option<Box<dyn Filter>> {
        let inner = self.inner.clone_filter()?;
        Some(Box::new(Timed {
            inner,
            tally: Arc::clone(&self.tally),
            slot: self.slot,
        }))
    }
    fn state_digest(&self, h: &mut comma_rt::digest::Fnv1a) {
        self.inner.state_digest(h)
    }
}

/// Builds a traced kind exactly as `comma_filters::standard_catalog` does.
fn make(kind: &str, args: &[String]) -> Result<Box<dyn Filter>, String> {
    Ok(match kind {
        "tcp" => Box::new(TcpHousekeeping::new()),
        "snoop" => match args.first() {
            None => Box::new(Snoop::new()),
            Some(ms) => {
                let ms: u64 = ms
                    .parse()
                    .map_err(|_| "snoop: bad max-local-rto".to_string())?;
                Box::new(Snoop::new().with_max_local_rto(SimDuration::from_millis(ms)))
            }
        },
        "wsize" => Box::new(Wsize::from_args(args)?),
        "compress" => {
            let method = match args.first() {
                None => Method::Lzss,
                Some(name) => {
                    Method::parse(name).ok_or_else(|| format!("compress: unknown method {name}"))?
                }
            };
            let block = match args.get(1) {
                None => comma_filters::catalog::DEFAULT_BLOCK,
                Some(b) => b
                    .parse()
                    .map_err(|_| "compress: bad block size".to_string())?,
            };
            Box::new(Ttsf::new(Box::new(Compressor::new(method, block))))
        }
        "decompress" => Box::new(Ttsf::new(Box::new(Decompressor::new()))),
        other => return Err(format!("no traced factory for {other}")),
    })
}

/// Installs timed factories for every [`TRACED_KINDS`] entry in the
/// engine's catalog and enables the engine's observability handle. Call
/// before the first packet: filters are instantiated when a stream's
/// first packet arrives, so every instance is then a wrapper.
pub fn install(engine: &mut FilterEngine, tally: &Arc<Tally>) {
    for (slot, kind) in TRACED_KINDS.into_iter().enumerate() {
        let tally = Arc::clone(tally);
        engine.catalog.register_loaded(
            kind,
            Box::new(move |args| {
                let inner = make(kind, args)?;
                Ok(Box::new(Timed {
                    inner,
                    tally: Arc::clone(&tally),
                    slot,
                }) as Box<dyn Filter>)
            }),
        );
    }
    engine.set_obs(Obs::enabled());
}

/// What a traced engine's observability handle recorded: dispatch
/// seconds, then `(injected, modified, dropped)` per traced kind. Unlike
/// per-instance stats these survive stream teardown.
pub fn engine_readout(engine: &FilterEngine) -> (f64, [[u64; 3]; TRACED_KINDS.len()]) {
    let obs = engine.obs();
    let dispatch_ns = obs
        .histogram("engine", "wall.dispatch_ns")
        .map_or(0, |h| h.sum());
    let kinds = TRACED_KINDS.map(|k| {
        [
            obs.counter(k, "filter.injected"),
            obs.counter(k, "filter.modified"),
            obs.counter(k, "filter.drops"),
        ]
    });
    (dispatch_ns as f64 * 1e-9, kinds)
}
