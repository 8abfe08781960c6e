//! E01 — reproduction of the SP interface example (Fig 5.3).
//!
//! The thesis session connects to the SP on `eramosa`, reports the loaded
//! filters (`tcp`, `launcher`, `wsize`, `rdrop`) and their stream keys for
//! the simulated stream `11.11.10.99 7 -> 11.11.10.10 1169`, adds an
//! `rdrop` at 50%, and deletes the `wsize` service. This test drives the
//! same command sequence and checks the same observable state transitions.

use comma_repro::prelude::*;

fn engine() -> FilterEngine {
    // Nothing preloaded: the session must `load` its filters, as the user
    // on styx did.
    FilterEngine::new(standard_catalog(&[]))
}

fn exec(e: &mut FilterEngine, rng: &mut SmallRng, line: &str) -> String {
    comma_proxy::command::execute(e, SimTime::ZERO, rng, &NullMetrics, line)
}

/// Key lines listed under a filter's section of a report.
fn section(report: &str, filter: &str) -> Vec<String> {
    report
        .lines()
        .skip_while(|l| *l != filter)
        .skip(1)
        .take_while(|l| l.starts_with('\t'))
        .map(|l| l.to_string())
        .collect()
}

fn stream_packet(sport: u16, dport: u16, seq: u32) -> Packet {
    let mut seg = TcpSegment::new(sport, dport, seq, 0, TcpFlags::ACK);
    seg.payload = comma_rt::Bytes::from(vec![0u8; 100]);
    Packet::tcp(
        "11.11.10.99".parse().unwrap(),
        "11.11.10.10".parse().unwrap(),
        seg,
    )
}

#[test]
fn fig_5_3_session() {
    let mut e = engine();
    let mut rng = SmallRng::seed_from_u64(53);

    // Load the four filters of the session. `load` prints the registered
    // name on success (and only then).
    assert_eq!(exec(&mut e, &mut rng, "load tcp.so"), "tcp\n");
    assert_eq!(exec(&mut e, &mut rng, "load launcher.so"), "launcher\n");
    assert_eq!(exec(&mut e, &mut rng, "load wsize.so"), "wsize\n");
    assert_eq!(exec(&mut e, &mut rng, "load rdrop.so"), "rdrop\n");

    // The launcher watches the mobile's wild-card key and applies tcp +
    // wsize to new matching streams (lines 9-10 of the figure).
    assert_eq!(
        exec(
            &mut e,
            &mut rng,
            "add launcher 11.11.10.99 0 11.11.10.10 0 tcp wsize:scale:50"
        ),
        ""
    );

    // First packet of the stream instantiates the launcher, which installs
    // tcp and wsize on the exact key.
    let mut outs = Vec::new();
    e.process(
        SimTime::ZERO,
        &mut rng,
        &NullMetrics,
        stream_packet(7, 1169, 1000),
        &mut outs,
    );
    assert_eq!(outs.len(), 1);

    // Line 6: `report` shows each loaded filter and its keys.
    let report = exec(&mut e, &mut rng, "report");
    let expected_key = "11.11.10.99 7 -> 11.11.10.10 1169";
    assert!(report.contains("launcher\n"), "{report}");
    assert!(
        report.contains("\t11.11.10.99 0 -> 11.11.10.10 0"),
        "{report}"
    );
    // tcp and wsize each service the stream (both directions bound; the
    // reverse key sorts first).
    let tcp_keys = section(&report, "tcp");
    assert!(
        tcp_keys.iter().any(|k| k.contains(expected_key)),
        "{report}"
    );
    let wsize_keys = section(&report, "wsize");
    assert!(
        wsize_keys.iter().any(|k| k.contains(expected_key)),
        "{report}"
    );
    // rdrop is loaded but not applied to any stream (line 13).
    assert!(
        section(&report, "rdrop").is_empty(),
        "rdrop has no keys yet: {report}"
    );

    // Line 15: well-formed add with the drop percentage as extra argument.
    assert_eq!(
        exec(
            &mut e,
            &mut rng,
            "add rdrop 11.11.10.99 7 11.11.10.10 1169 50"
        ),
        ""
    );
    // The filter appears on the stream at its next packet.
    e.process(
        SimTime::ZERO,
        &mut rng,
        &NullMetrics,
        stream_packet(7, 1169, 1100),
        &mut Vec::new(),
    );
    let report = exec(&mut e, &mut rng, "report");
    assert!(
        section(&report, "rdrop")
            .iter()
            .any(|k| k.contains(expected_key)),
        "rdrop now services the stream: {report}"
    );

    // Line 27: delete the wsize service; afterwards (lines 30-34) wsize is
    // still loaded but services no streams.
    assert_eq!(
        exec(
            &mut e,
            &mut rng,
            "delete wsize 11.11.10.99 7 11.11.10.10 1169"
        ),
        ""
    );
    let report = exec(&mut e, &mut rng, "report wsize");
    assert_eq!(
        report, "wsize\n",
        "wsize has no associated streams: {report:?}"
    );

    // The other filters keep their bindings.
    let report = exec(&mut e, &mut rng, "report tcp");
    assert!(report.contains(expected_key), "{report}");
}

#[test]
fn rdrop_drops_half_the_stream() {
    // The session's purpose: a 50% packet dropper on the stream.
    let mut e = engine();
    let mut rng = SmallRng::seed_from_u64(54);
    exec(&mut e, &mut rng, "load rdrop.so");
    exec(
        &mut e,
        &mut rng,
        "add rdrop 11.11.10.99 7 11.11.10.10 1169 50",
    );
    let mut outs = Vec::new();
    let n = 2000;
    for i in 0..n {
        e.process(
            SimTime::ZERO,
            &mut rng,
            &NullMetrics,
            stream_packet(7, 1169, i * 100),
            &mut outs,
        );
    }
    let passed = outs.len();
    let rate = passed as f64 / n as f64;
    assert!((rate - 0.5).abs() < 0.05, "pass rate {rate}");
    assert_eq!(e.totals.drops + passed as u64, n as u64);
}

#[test]
fn unknown_library_files_fail_silently() {
    let mut e = engine();
    let mut rng = SmallRng::seed_from_u64(55);
    assert_eq!(exec(&mut e, &mut rng, "load nonexistent.so"), "");
    assert_eq!(
        exec(&mut e, &mut rng, "add nonexistent 0.0.0.0 0 0.0.0.0 0"),
        ""
    );
    assert_eq!(exec(&mut e, &mut rng, "report nonexistent"), "");
}

/// Rewrites the advertised window, then drops the packet: a drop line
/// rendered after filtering would no longer match the packet as it arrived.
struct ShrinkThenDrop;

impl Filter for ShrinkThenDrop {
    fn kind(&self) -> &'static str {
        "shrinkdrop"
    }
    fn priority(&self) -> Priority {
        Priority::Normal
    }
    fn capabilities(&self) -> Capabilities {
        Capabilities::MODIFY_HEADERS.with(Capabilities::DROP)
    }
    fn on_out(&mut self, _ctx: &mut FilterCtx<'_>, _key: StreamKey, pkt: &mut Packet) -> Verdict {
        if let comma_netsim::packet::IpPayload::Tcp(seg) = &mut pkt.body {
            seg.window = 0;
        }
        Verdict::Drop
    }
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[test]
fn proxy_filter_drop_is_counted_and_traced_as_it_arrived() {
    use comma_netsim::node::{IfaceId, Node, NodeCtx};
    use comma_netsim::routing::RoutingTable;
    use comma_netsim::trace::{DropReason, Trace, TraceEvent};

    for capture in [false, true] {
        let mut e = engine();
        e.catalog
            .register_loaded("shrinkdrop", Box::new(|_| Ok(Box::new(ShrinkThenDrop))));
        e.register(WildKey::ANY, "shrinkdrop", vec![]).unwrap();
        let mut sp = ServiceProxy::new("sp", vec![], RoutingTable::new(), e, 1);
        let mut pkt = stream_packet(7, 1169, 0);
        if let comma_netsim::packet::IpPayload::Tcp(seg) = &mut pkt.body {
            seg.window = 4096;
        }
        let arriving = pkt.summary();
        let mut rng = SmallRng::seed_from_u64(56);
        let mut trace = Trace::new();
        trace.set_capture(capture);
        let mut ctx = NodeCtx::new(SimTime::ZERO, NodeId(0), 1, &mut rng, &mut trace);
        sp.on_packet(&mut ctx, IfaceId(0), pkt);
        drop(ctx);

        assert_eq!(sp.filtered_out, 1, "capture={capture}");
        assert_eq!(sp.forwarded, 0, "capture={capture}");
        assert_eq!(trace.counters.drops, 1, "capture={capture}");
        let lines: Vec<&str> = trace
            .entries()
            .iter()
            .filter_map(|entry| match &entry.event {
                TraceEvent::Drop {
                    reason: DropReason::Filter,
                    summary,
                    ..
                } => Some(summary.as_str()),
                _ => None,
            })
            .collect();
        if capture {
            assert!(arriving.contains("win=4096"), "{arriving}");
            assert_eq!(lines, [arriving.as_str()]);
        } else {
            assert!(lines.is_empty(), "{lines:?}");
        }
    }
}
