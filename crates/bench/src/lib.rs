//! The Comma reproduction's benchmark and experiment harness.
//!
//! `cargo bench -p comma-bench` runs three targets:
//!
//! - `micro` — micro-benchmarks of the hot paths (edit map, filter engine,
//!   wire codec, compressors, simulator event rate);
//! - `experiments` — the full table/figure regeneration harness: one block
//!   per experiment in DESIGN.md's index, each annotated with the paper's
//!   claim and whether the measured shape holds;
//! - `macrobench` — the perf trajectory: writes `BENCH_macro.json` and a
//!   `BENCH.json` entry, then checks the snapshot against [`gate`].

#![warn(missing_docs)]

pub mod exps;
pub mod gate;
pub mod scale;
pub mod table;

use comma_netsim::addr::Ipv4Addr;
use comma_netsim::packet::{Packet, TcpFlags, TcpSegment};
use comma_proxy::{FilterEngine, WildKey};
use comma_rt::Bytes;

/// A filter engine running the standard 4-filter chain — tcp → snoop →
/// wsize (scale 90) → tcp — on every stream: the proxy configuration the
/// dispatch benches and the allocation tests measure.
pub fn chain_engine() -> FilterEngine {
    let mut engine = FilterEngine::new(comma_filters::standard_catalog(comma_filters::ALL_FILTERS));
    for cmd in ["tcp", "snoop", "wsize scale 90", "tcp"] {
        let mut words = cmd.split(' ');
        let filter = words.next().expect("filter name");
        engine.register(WildKey::ANY, filter, words.map(String::from).collect()).expect("standard filter");
    }
    engine
}

/// A data segment at `seq` on the stream 11.11.10.99:7 → 11.11.10.10:1169.
pub fn chain_packet(seq: u32, payload: Bytes) -> Packet {
    let mut seg = TcpSegment::new(7, 1169, seq, 0, TcpFlags::ACK);
    seg.payload = payload;
    Packet::tcp(Ipv4Addr::new(11, 11, 10, 99), Ipv4Addr::new(11, 11, 10, 10), seg)
}

/// Runs every experiment, printing each block as it completes.
pub fn run_and_print_all() {
    println!("Comma reproduction — experiment harness");
    println!("=======================================");
    println!();
    for block in exps::run_all() {
        println!("{block}");
    }
    println!("E15 (filter-queue ordering) and E16 (EEM API surface) are covered by");
    println!("`tests/filter_queue_order.rs` and `crates/eem` unit tests respectively.");
}
