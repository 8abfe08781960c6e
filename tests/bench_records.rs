//! The committed bench records read back through `comma_rt::json`: the
//! `BENCH_macro.json` snapshot passes every macrobench gate, and every
//! `BENCH.json` trajectory entry is a timestamped object.

use comma_bench::gate;
use comma_repro::rt::json::Json;

fn read(name: &str) -> Json {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"))
}

#[test]
fn committed_snapshot_parses_and_passes_the_gates() {
    let snap = read("BENCH_macro.json");
    assert_eq!(snap["schema"], Json::from("comma-macro-bench-v2"));
    assert_eq!(gate::check(&snap, false), Vec::<String>::new());
}

#[test]
fn committed_trajectory_parses_with_its_history() {
    let history = read("BENCH.json");
    let entries = history.as_array().expect("BENCH.json is an array");
    assert!(entries.len() >= 9, "history lost: {} entries", entries.len());
    for e in entries {
        assert!(e["unix_ts"].as_u64().is_some(), "entry without unix_ts: {e}");
    }
}
