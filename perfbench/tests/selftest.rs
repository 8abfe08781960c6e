//! Self-tests of the benchmark at reduced sizes (`mc_ttsf` keeps the
//! shipped exploration, whose state count is pinned). Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use comma_perfbench::json::Json;
use comma_perfbench::{
    result_json, Report, Run, Workload, END_TO_END, HELD_OUT_SEED, PER_LAYER, WORKLOADS,
};

fn count(run: &Run, name: &str) -> f64 {
    *run.outcome
        .counts
        .get(name)
        .unwrap_or_else(|| panic!("no count {name}"))
}

/// Every named metric is present, finite and carries its unit, for both
/// run types, and the outputs are reported correct.
fn assert_report_complete(w: &Workload, untraced: &[Run], traced: &[Run]) {
    let report = Report {
        untraced: untraced.to_vec(),
        traced: traced.to_vec(),
        setups: vec![w.setup(HELD_OUT_SEED)],
        lanes: 1,
        peak_rss_mb: comma_perfbench::host::peak_rss_mb(),
        problems: Vec::new(),
    };
    for (tracing, names) in [(false, END_TO_END.to_vec()), (true, PER_LAYER.to_vec())] {
        let json = result_json(&report, tracing);
        assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(json.get("failed").and_then(Json::as_f64), Some(0.0));
        let attempted = json
            .get("attempted")
            .and_then(Json::as_f64)
            .expect("attempted");
        assert!(attempted >= 1.0);
        let metrics = json.get("metrics").expect("metrics");
        let Json::Obj(fields) = metrics else {
            panic!("metrics is not an object")
        };
        assert_eq!(fields.len(), names.len(), "exactly the listed metrics");
        for (name, unit) in names {
            let m = metrics
                .get(name)
                .unwrap_or_else(|| panic!("{name} missing"));
            let v = m.get("value").and_then(Json::as_f64);
            assert!(
                v.is_some_and(f64::is_finite),
                "{name} = {v:?} is not finite"
            );
            assert_eq!(
                m.get("unit"),
                Some(&Json::Str(unit.to_string())),
                "{name} unit"
            );
        }
    }
}

/// The checks every workload shares: same-seed runs agree on every
/// deterministic value, the traced run reproduces them bit for bit
/// (the wrappers change nothing), nothing fails, and the oracle is clean.
fn check(name: &str) -> Run {
    let w = Workload::small(name).expect("known workload");
    let a = w.run(HELD_OUT_SEED, false);
    let b = w.run(HELD_OUT_SEED, false);
    let t = w.run(HELD_OUT_SEED, true);
    assert_eq!(a.outcome, b.outcome, "{name}: same-seed runs disagree");
    assert_eq!(
        a.outcome, t.outcome,
        "{name}: the traced run changed the outcome"
    );
    assert_eq!(a.outcome.failed, 0, "{name}: operations failed");
    let trace = t.trace.as_ref().expect("traced run");
    assert_eq!(trace.counts.get("oracle.violations"), Some(&0.0));
    assert!(comma_perfbench::sim_core_s(&t) >= 0.0);
    assert_report_complete(&w, &[a.clone(), b], &[t]);
    a
}

#[test]
fn cell_snoop_is_deterministic_and_traces_transparently() {
    let run = check("cell_snoop");
    for layer in ["sched.events", "engine.pkts", "link.wireless_pkts"] {
        assert!(count(&run, layer) > 0.0, "{layer}");
    }
    assert_eq!(count(&run, "fluid.epochs"), 0.0);
}

#[test]
fn cell_compress_is_deterministic_and_traces_transparently() {
    let run = check("cell_compress");
    assert!(count(&run, "engine.pkts") > 0.0);
    assert!(
        run.outcome.wireless_bytes_ratio < 1.0,
        "compression must shrink the wireless bytes, ratio {}",
        run.outcome.wireless_bytes_ratio
    );
}

#[test]
fn metro_is_deterministic_and_traces_transparently() {
    let run = check("metro");
    assert!(count(&run, "fluid.epochs") > 0.0);
    assert!(count(&run, "shard.windows") > 0.0);
}

#[test]
fn mc_ttsf_explores_the_pinned_state_count() {
    let run = check("mc_ttsf");
    assert_eq!(count(&run, "mc.states_explored"), 50_475.0);
    assert_eq!(run.outcome.states, 50_475);
}

#[test]
fn benchmark_json_lists_exactly_the_printed_metrics_and_workloads() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let entries = WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len();
    assert_eq!(text.matches("\"name\": ").count(), entries);
    for w in WORKLOADS {
        assert!(
            text.contains(&format!("{{\"name\": \"{w}\", \"why\": ")),
            "{w}"
        );
    }
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", ");
        assert!(
            text.contains(&entry),
            "{name} ({unit}) missing from BENCHMARK.json"
        );
    }
}
