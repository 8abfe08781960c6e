//! The `./scripts/ci.sh mc` gate runner.
//!
//! Two checks, any failure exits nonzero with a banner:
//!
//! 1. the shipped-default exploration ([`McConfig::default`]) must finish
//!    exhaustively (no step-budget hit) with zero violations, at least 30%
//!    fingerprint dedup, and exactly the shipped coverage counts
//!    ([`SHIPPED_COUNTS`]);
//! 2. the known-bug mutation (`mutate_skip_ack_translation`) must be
//!    rediscovered as a `delivered-ack-regression` within the same budget,
//!    and its minimized trace must replay to a violation.
//!
//! The coverage numbers in `BENCH_macro.json`'s `"mc"` block come from the
//! macrobench, which runs the same shipped exploration.

use std::process::exit;

use comma_mc::{explore, replay_mc_trace, McConfig};

/// States explored, states pruned and steps executed by the shipped-default
/// exploration. The state fingerprint decides which arrivals merge, so a
/// digest change that merges distinct states (unsound pruning) or splits
/// equal ones (lost dedup) moves these counts; a deliberate change to the
/// scenario or the fingerprint re-pins them.
const SHIPPED_COUNTS: (u64, u64, u64) = (50_475, 42_258, 92_732);

fn main() {
    let cfg = McConfig::default();
    let t = std::time::Instant::now();
    let report = explore(&cfg);
    let wall_ms = t.elapsed().as_secs_f64() * 1_000.0;
    println!("{}", report.render());
    println!("wall: {wall_ms:.1} ms");
    if !report.exhausted_clean() || report.states_explored == 0 {
        eprintln!("mc gate FAILED: shipped exploration not clean/exhaustive");
        exit(1);
    }
    let counts = (report.states_explored, report.states_pruned, report.steps_executed);
    if counts != SHIPPED_COUNTS {
        eprintln!(
            "mc gate FAILED: (explored, pruned, steps) = {counts:?}, expected \
             {SHIPPED_COUNTS:?} — the state fingerprint now merges or splits \
             states it did not before"
        );
        exit(1);
    }
    if report.dedup_ratio() < 0.30 {
        eprintln!(
            "mc gate FAILED: dedup ratio {:.3} < 0.30 — state fingerprints have \
             stopped converging (arrival-history artifact in a digest?)",
            report.dedup_ratio()
        );
        exit(1);
    }

    let mcfg = McConfig {
        max_faults: 0,
        mutate_skip_ack_translation: true,
        ..McConfig::default()
    };
    let mreport = explore(&mcfg);
    let Some(v) = &mreport.violation else {
        eprintln!(
            "mc gate FAILED: mutate_skip_ack_translation not rediscovered \
             ({} states explored) — the oracle pipeline is blind",
            mreport.states_explored
        );
        exit(1);
    };
    println!("mutation rediscovered: {}", v.detail);
    println!("  minimized: {}", v.minimized);
    let replayed = replay_mc_trace(&mcfg, &v.minimized);
    if replayed.violation.is_none() {
        eprintln!(
            "mc gate FAILED: minimized counterexample does not replay \
             (error: {:?})",
            replayed.error
        );
        exit(1);
    }

    println!("mc gate ok ({} states, {:.0}% dedup)", report.states_explored, report.dedup_ratio() * 100.0);
}
