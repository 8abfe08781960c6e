//! The bounds every `BENCH_macro.json` snapshot must meet, checked on the
//! parsed value. The macrobench runs [`check`] on the snapshot it has just
//! written and exits nonzero on any failure, so a bench run gates itself.
//!
//! | gate | bound |
//! |---|---|
//! | top-level keys | [`TOP_LEVEL_KEYS`] present |
//! | `scale.flows_{16,64,256}` | `events_per_sec` > 0 |
//! | `metro` | its keys present, `fg_goodput_bps` > 0, `sim_events_2x_bg` ≤ 1.5 × `sim_events` |
//! | `exps_wall_ms` | `speedup` ≥ 1.0 when `cores` ≥ 4 and `workers` ≥ 2 |
//! | `scale.flows_10k` | `events_per_sec` > 0, `speedup_vs_serial` ≥ 2.5 when `cores` ≥ 4 and `workers` ≥ 4 |
//! | `mc` | its keys present, `states_explored` > 0, `violations` = 0 |
//! | alloc-stats builds | `allocs_per_event`, `allocs_per_window` not null, `allocs_per_window` = 0 |
//!
//! The speedup floors only bind on hosts with the cores to meet them; the
//! snapshot records `cores` once at top level for that purpose.

use comma_rt::json::Json;

/// Keys every snapshot carries at top level.
pub const TOP_LEVEL_KEYS: [&str; 8] = [
    "cores", "pkts_per_sec", "engine_ns_per_pkt", "events_per_sec", "exps_wall_ms", "scale", "metro", "fluid_solver_ns",
];

const METRO_KEYS: [&str; 5] = ["bg_users", "fg_goodput_bps", "events_per_sec", "sim_events", "sim_events_2x_bg"];
const MC_KEYS: [&str; 6] = ["states_explored", "states_pruned", "dedup_ratio", "states_per_sec", "wall_ms", "violations"];
const ALLOC_KEYS: [&str; 3] = ["allocs_per_event", "allocs_per_window", "windows_skipped"];

/// Checks `snap` against every gate; returns one message per failure
/// (empty when the snapshot passes). `alloc_stats` says whether the
/// snapshot came from a build with the counting allocator, which makes the
/// allocation gates apply.
pub fn check(snap: &Json, alloc_stats: bool) -> Vec<String> {
    let mut fails = Vec::new();
    let (scale, metro, exps, mc) = (&snap["scale"], &snap["metro"], &snap["exps_wall_ms"], &snap["mc"]);
    let mut required = vec![("snapshot", snap, &TOP_LEVEL_KEYS[..]), ("metro block", metro, &METRO_KEYS), ("mc block", mc, &MC_KEYS)];
    if alloc_stats {
        required.push(("alloc-stats snapshot", snap, &ALLOC_KEYS));
    }
    for (name, block, keys) in required {
        fails.extend(keys.iter().filter(|k| block.get(k).is_none()).map(|k| format!("{name} lacks \"{k}\"")));
    }
    let mut require = |ok: bool, msg: String| {
        if !ok {
            fails.push(msg);
        }
    };
    let positive = |v: &Json| v.as_f64().is_some_and(|x| x > 0.0);

    for n in [16, 64, 256] {
        let rate = &scale[&format!("flows_{n}")]["events_per_sec"];
        require(positive(rate), format!("scale.flows_{n}.events_per_sec missing or zero"));
    }

    require(positive(&metro["fg_goodput_bps"]), "metro fg_goodput_bps missing or zero".into());
    let (events, events_2x) = (metro["sim_events"].as_f64(), metro["sim_events_2x_bg"].as_f64());
    require(
        matches!((events, events_2x), (Some(a), Some(b)) if b <= a * 1.5),
        format!(
            "doubling background users grew metro sim_events {} -> {} (> 1.5x); background \
             traffic is leaking per-packet cost",
            metro["sim_events"], metro["sim_events_2x_bg"]
        ),
    );

    // The speedup floors bind only on hosts with the cores to meet them.
    let cores = snap["cores"].as_f64().unwrap_or(1.0);
    let exps_workers = exps["workers"].as_f64().unwrap_or(1.0);
    require(
        cores < 4.0 || exps_workers < 2.0 || exps["speedup"].as_f64().is_some_and(|s| s >= 1.0),
        format!("exps speedup {} < 1.0 at {exps_workers} workers on {cores} cores", exps["speedup"]),
    );

    let f10k = &scale["flows_10k"];
    require(positive(&f10k["events_per_sec"]), "scale.flows_10k.events_per_sec missing or zero".into());
    let (workers, speedup) = (f10k["workers"].as_f64(), f10k["speedup_vs_serial"].as_f64());
    require(
        matches!((workers, speedup), (Some(w), Some(s)) if cores < 4.0 || w < 4.0 || s >= 2.5),
        format!(
            "flows_10k speedup_vs_serial {} < 2.5 at {} workers on {cores} cores",
            f10k["speedup_vs_serial"], f10k["workers"]
        ),
    );

    require(positive(&mc["states_explored"]), "mc states_explored missing or zero".into());
    require(
        mc["violations"].as_u64() == Some(0),
        format!("mc shipped exploration recorded violations = {}", mc["violations"]),
    );

    if alloc_stats {
        for key in ["allocs_per_event", "allocs_per_window"] {
            require(snap[key].as_f64().is_some(), format!("{key} is null (alloc-stats not compiled in?)"));
        }
        let apw = &snap["allocs_per_window"];
        require(apw.is_null() || apw.as_f64() == Some(0.0), format!("steady-state allocs_per_window = {apw} (must be 0)"));
    }
    fails
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A snapshot that passes every gate, on a host where the speedup
    /// floors bind (4 cores, 4 workers) and with the allocation fields set.
    fn passing() -> Json {
        Json::parse(
            r#"{
              "cores": 4, "allocs_per_event": 0, "allocs_per_window": 0, "windows_skipped": 0,
              "events_per_sec": 6e6, "engine_ns_per_pkt": 700, "pkts_per_sec": 85000,
              "scale": {
                "flows_16": { "events_per_sec": 1e6 },
                "flows_64": { "events_per_sec": 1.2e6 },
                "flows_256": { "events_per_sec": 2.4e6 },
                "flows_10k": { "events_per_sec": 1.3e6, "workers": 4, "speedup_vs_serial": 2.5 }
              },
              "metro": { "bg_users": 64000, "fg_goodput_bps": 696320.0, "events_per_sec": 162257.8,
                         "sim_events": 1000, "sim_events_2x_bg": 1500 },
              "fluid_solver_ns": { "flows_100": 1254.4 },
              "exps_wall_ms": { "serial": 995.9, "parallel": 500, "speedup": 1.0, "workers": 2 },
              "mc": { "states_explored": 50475, "states_pruned": 42258, "dedup_ratio": 0.456,
                      "states_per_sec": 18827, "wall_ms": 2681.1, "violations": 0 }
            }"#,
        )
        .unwrap()
    }

    /// Sets the value at a dotted `path` (every step must exist).
    fn set(snap: &mut Json, path: &str, v: Json) {
        let slot = path.split('.').fold(snap, |j, k| j.get_mut(k).expect(path));
        *slot = v;
    }

    /// `check` on `passing()` with one edit fails exactly once, naming `needle`.
    fn fails_once(path: &str, v: Json, alloc_stats: bool, needle: &str) {
        let mut snap = passing();
        set(&mut snap, path, v);
        let fails = check(&snap, alloc_stats);
        assert_eq!(fails.len(), 1, "{path}: {fails:?}");
        assert!(fails[0].contains(needle), "{path}: {fails:?} lacks {needle:?}");
    }

    #[test]
    fn passing_snapshot_passes() {
        assert_eq!(check(&passing(), true), Vec::<String>::new());
        assert_eq!(check(&passing(), false), Vec::<String>::new());
    }

    #[test]
    fn each_gate_fails_alone() {
        fails_once("metro.sim_events_2x_bg", Json::from(1600), false, "> 1.5x");
        fails_once("metro.fg_goodput_bps", Json::from(0.0), false, "fg_goodput_bps");
        fails_once("scale.flows_64.events_per_sec", Json::from(0), false, "flows_64");
        fails_once("scale.flows_10k.events_per_sec", Json::Null, false, "flows_10k.events_per_sec");
        fails_once("scale.flows_10k.speedup_vs_serial", Json::from(2.49), false, "< 2.5");
        fails_once("exps_wall_ms.speedup", Json::from(0.99), false, "< 1.0");
        fails_once("exps_wall_ms.speedup", Json::Null, false, "< 1.0");
        fails_once("mc.violations", Json::from(1), false, "violations = 1");
        fails_once("mc.states_explored", Json::from(0), false, "states_explored");
        fails_once("allocs_per_window", Json::Null, true, "allocs_per_window is null");
        fails_once("allocs_per_event", Json::Null, true, "allocs_per_event is null");
        fails_once("allocs_per_window", Json::from(0.5), true, "allocs_per_window = 0.5");
    }

    #[test]
    fn missing_keys_fail() {
        let Json::Object(mut fields) = passing() else { unreachable!() };
        fields.retain(|(k, _)| k != "fluid_solver_ns");
        assert_eq!(check(&Json::Object(fields), false), ["snapshot lacks \"fluid_solver_ns\""]);
        let mut snap = passing();
        let Some(Json::Object(mc)) = snap.get_mut("mc") else { unreachable!() };
        mc.retain(|(k, _)| k != "dedup_ratio");
        assert_eq!(check(&snap, false), ["mc block lacks \"dedup_ratio\""]);
    }

    #[test]
    fn allocation_gates_bind_only_under_alloc_stats() {
        let mut snap = passing();
        set(&mut snap, "allocs_per_window", Json::Null);
        set(&mut snap, "allocs_per_event", Json::Null);
        assert!(check(&snap, false).is_empty());
    }

    #[test]
    fn speedup_floors_bind_only_with_the_cores() {
        let mut snap = passing();
        set(&mut snap, "exps_wall_ms.speedup", Json::from(0.5));
        set(&mut snap, "scale.flows_10k.speedup_vs_serial", Json::from(1.0));
        assert_eq!(check(&snap, false).len(), 2);
        set(&mut snap, "cores", Json::from(2));
        assert!(check(&snap, false).is_empty());
        // One-worker hosts record a null exps speedup; no floor applies.
        set(&mut snap, "cores", Json::from(4));
        set(&mut snap, "exps_wall_ms.workers", Json::from(1));
        set(&mut snap, "exps_wall_ms.speedup", Json::Null);
        set(&mut snap, "scale.flows_10k.workers", Json::from(2));
        assert!(check(&snap, false).is_empty());
    }
}
