//! The packet batch the engine hands to a filter's batch hooks.
//!
//! [`crate::engine::FilterEngine::process`] puts each keyed packet in a
//! one-packet [`PacketBatch`] and runs it through every filter's
//! [`crate::filter::Filter::on_out_batch`], whose default calls
//! [`crate::filter::Filter::on_out`]. Filters mutate packets in place and
//! *request* drops; the engine applies the requests after each filter so
//! capability enforcement (Chapter 9) stays engine-side. The batch's
//! backing storage lives in the engine's scratch arena and is reused from
//! packet to packet.

use comma_netsim::packet::Packet;

/// One stream's packets moving through the out-pass.
#[derive(Default)]
pub struct PacketBatch {
    pub(crate) pkts: Vec<Packet>,
    /// Parallel to `pkts`: packets already dropped by an earlier filter in
    /// this run. Filters must skip these.
    pub(crate) dropped: Vec<bool>,
    /// Indices whose drop was requested by the filter currently running;
    /// the engine drains this after each filter and enforces
    /// [`crate::filter::Capabilities::DROP`].
    pub(crate) drop_requests: Vec<u32>,
}

impl PacketBatch {
    /// Number of packets in the run (dropped ones included).
    pub fn len(&self) -> usize {
        self.pkts.len()
    }

    /// Whether the run is empty.
    pub fn is_empty(&self) -> bool {
        self.pkts.is_empty()
    }

    /// The packet at `i` (dropped or not).
    pub fn pkt(&self, i: usize) -> &Packet {
        &self.pkts[i]
    }

    /// Mutable access to the packet at `i`. Modifications are diffed
    /// against the filter's declared capabilities by the engine, exactly
    /// as in the scalar `on_out` path.
    pub fn pkt_mut(&mut self, i: usize) -> &mut Packet {
        &mut self.pkts[i]
    }

    /// All packets in the run, in arrival order.
    pub fn pkts(&self) -> &[Packet] {
        &self.pkts
    }

    /// Whether the packet at `i` was dropped by an earlier filter. Batch
    /// out-methods must skip dropped slots (the scalar path never shows a
    /// dropped packet to the remaining filters).
    pub fn is_dropped(&self, i: usize) -> bool {
        self.dropped[i]
    }

    /// Requests that the packet at `i` be dropped — the batch equivalent
    /// of returning [`crate::filter::Verdict::Drop`]. The engine applies
    /// the request after the filter returns, subject to the filter's
    /// [`crate::filter::Capabilities::DROP`] capability.
    pub fn request_drop(&mut self, i: usize) {
        self.drop_requests.push(i as u32);
    }

    pub(crate) fn push(&mut self, pkt: Packet) {
        self.pkts.push(pkt);
        self.dropped.push(false);
    }
}
