//! Allocation-regression suite: with the `alloc-stats` feature (a counting
//! `#[global_allocator]` in `comma-rt`), the steady-state hot loops must be
//! heap-silent — every buffer they touch is recycled, every payload pooled.
//! Warmup (the first simulated second) may allocate freely; anything after
//! it is a regression.
//!
//! Run with `cargo test --features alloc-stats --test alloc` or via
//! `./scripts/ci.sh alloc`. Without the feature the whole file compiles
//! away.
#![cfg(feature = "alloc-stats")]

use comma_bench::scale::{event_core_alloc_probe, sharded_alloc_probe};
use comma_repro::mc::{build_scenario, McConfig};
use comma_repro::netsim::sim::McAction;
use comma_repro::rt::alloc::AllocScope;

#[test]
fn serial_event_core_is_allocation_free_after_warmup() {
    let (warm, steady, _) = event_core_alloc_probe(32, 7);
    assert!(warm > 0, "warmup fills recycled buffers, so it must allocate");
    assert_eq!(
        steady, 0,
        "the serial event core allocated {steady} times in steady state \
         (after {warm} warmup allocations)"
    );
}

#[test]
fn sharded_window_loop_is_allocation_free_after_warmup() {
    for workers in [1usize, 2] {
        let (warm, steady, _) = sharded_alloc_probe(4, workers, 7);
        assert!(warm > 0, "warmup fills lanes and scratch, so it must allocate");
        assert_eq!(
            steady, 0,
            "the sharded window loop ({workers} workers) allocated {steady} \
             times in steady state (after {warm} warmup allocations)"
        );
    }
}

/// The model checker fingerprints every state it reaches, so the hash is
/// on its hottest path: it folds fields structurally and combines
/// unordered sets by sum — no rendering, no collecting, no sorting, and
/// therefore no heap traffic at all.
#[test]
fn state_hash_is_allocation_free() {
    let cfg = McConfig {
        max_faults: 0,
        ..McConfig::default()
    };
    let mut world = build_scenario(&cfg);
    // Mid-transfer: sockets established, TTSF instances spawned, packets
    // with payload in flight.
    for step in 0..40 {
        let options = world.sim.mc_options();
        assert!(!options.is_empty(), "scenario quiesced after {step} steps");
        world.sim.mc_step(step % options.len(), McAction::Deliver).unwrap();
    }
    let expected = world.sim.state_hash();
    let scope = AllocScope::begin();
    for _ in 0..100 {
        assert_eq!(world.sim.state_hash(), expected);
    }
    let d = scope.delta();
    assert_eq!(d.allocs, 0, "100 state_hash calls allocated {} times", d.allocs);
}

/// The proxy engine appends its output to a buffer the caller recycles,
/// so a warmed `tcp → snoop → wsize → tcp` chain no longer allocates a
/// fresh output vector per packet (a returned `Vec` cost 1,013 allocations
/// per 1,000 calls). What remains is filter state growth, e.g. snoop's
/// cache.
#[test]
fn engine_process_reuses_the_callers_buffer() {
    use comma_repro::netsim::time::SimTime;
    use comma_repro::proxy::NullMetrics;
    use comma_repro::rt::{Bytes, SeedableRng, SmallRng};

    let mut engine = comma_bench::chain_engine();
    let payload = Bytes::from(vec![0xabu8; 1400]);
    let mut rng = SmallRng::seed_from_u64(1);
    let mut out = Vec::new();
    let mut warmed = None;
    for i in 0..1_100u32 {
        if i == 100 {
            warmed = Some(AllocScope::begin());
        }
        out.clear();
        let pkt = comma_bench::chain_packet(i.wrapping_mul(1400), payload.clone());
        engine.process(SimTime::ZERO, &mut rng, &NullMetrics, pkt, &mut out);
        assert_eq!(out.len(), 1);
    }
    let allocs = warmed.unwrap().delta().allocs;
    assert!(allocs <= 100, "1,000 warmed process calls allocated {allocs} times");
}
