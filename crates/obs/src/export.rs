//! JSONL export: one compact [`Json`] object per line.
//!
//! Lines come in a fixed order: a meta header, then counters, gauges,
//! histograms (each sorted by scope then key — `BTreeMap` iteration
//! order), then the flight-recorder events oldest-first. With the same
//! seed, two runs therefore produce byte-identical exports; this is
//! asserted in `tests/determinism.rs`.
//!
//! Wall-clock measurements (anything under the reserved `wall` scope or a
//! `wall.`-prefixed key, e.g. span latencies) are *excluded*: they are real
//! host-machine timings and would break the byte-identity guarantee. They
//! remain visible in [`crate::Obs::summary`].

use comma_rt::json::Json;

use crate::recorder::{Event, FieldValue};
use crate::registry::Registry;
use crate::WALL_SCOPE;

impl From<&FieldValue> for Json {
    fn from(v: &FieldValue) -> Json {
        match v {
            FieldValue::U64(v) => Json::from(*v),
            FieldValue::I64(v) => Json::from(*v),
            FieldValue::F64(v) => Json::from(*v),
            FieldValue::Bool(v) => Json::from(*v),
            FieldValue::Str(s) => Json::from(s.as_str()),
        }
    }
}

/// `true` for metrics that carry host wall-clock time and must stay out of
/// the deterministic export.
pub(crate) fn is_wall(scope: &str, key: &str) -> bool {
    scope == WALL_SCOPE || key.starts_with("wall.")
}

/// The leading fields of a metric line.
fn metric(kind: &str, scope: &str, key: &str) -> Json {
    Json::object().with("type", kind).with("scope", scope).with("key", key)
}

fn push_line(out: &mut String, v: Json) {
    v.write_compact(out);
    out.push('\n');
}

pub(crate) fn export_jsonl<'a>(
    registry: &Registry,
    events: impl Iterator<Item = &'a Event>,
    dropped: u64,
) -> String {
    let mut out = String::new();
    let meta = Json::object().with("type", "meta").with("format", "comma-obs").with("version", 1);
    push_line(&mut out, meta);
    for (scope, m) in &registry.counters {
        for (key, v) in m.iter().filter(|(k, _)| !is_wall(scope, k)) {
            push_line(&mut out, metric("counter", scope, key).with("value", *v));
        }
    }
    for (scope, m) in &registry.gauges {
        for (key, v) in m.iter().filter(|(k, _)| !is_wall(scope, k)) {
            push_line(&mut out, metric("gauge", scope, key).with("value", *v));
        }
    }
    let ints = |xs: &[u64]| Json::Array(xs.iter().map(|&x| Json::from(x)).collect());
    for (scope, m) in &registry.hists {
        for (key, h) in m.iter().filter(|(k, _)| !is_wall(scope, k)) {
            let hist = metric("histogram", scope, key)
                .with("count", h.count())
                .with("sum", h.sum())
                .with("bounds", ints(h.bounds()))
                .with("counts", ints(h.counts()));
            push_line(&mut out, hist);
        }
    }
    for ev in events {
        let fields = ev.fields.iter().map(|(k, v)| (k.to_string(), Json::from(v)));
        let event = Json::object()
            .with("type", "event")
            .with("t_us", ev.t_us)
            .with("scope", ev.scope.as_str())
            .with("name", ev.name)
            .with("fields", Json::Object(fields.collect()));
        push_line(&mut out, event);
    }
    if dropped > 0 {
        let tail = Json::object().with("type", "events_dropped").with("count", dropped);
        push_line(&mut out, tail);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_metrics_excluded() {
        assert!(is_wall("wall", "anything"));
        assert!(is_wall("engine", "wall.dispatch_ns"));
        assert!(!is_wall("engine", "pkts"));
    }
}
