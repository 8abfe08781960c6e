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
    let (warm, steady) = event_core_alloc_probe(32, 7);
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
        let (warm, steady) = sharded_alloc_probe(4, workers, 7);
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
