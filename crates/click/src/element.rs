//! The element abstraction: Click's unit of packet processing.

use std::any::Any;

use innet_packet::Packet;

/// Per-run execution context handed to every element invocation.
///
/// Elements never read wall-clock time themselves; the driver (the platform's
/// native engine or the discrete-event simulator) supplies virtual time, so
/// the same element code runs identically in both.
#[derive(Debug, Clone, Copy, Default)]
pub struct Context {
    /// Current virtual time in nanoseconds.
    pub now_ns: u64,
}

impl Context {
    /// A context at the given virtual time.
    pub fn at(now_ns: u64) -> Context {
        Context { now_ns }
    }
}

/// Where an element's output packets go.
///
/// `push` delivers to a numbered output port (wired to a downstream element
/// by the router); `transmit` hands a packet to the outside world through a
/// numbered interface (used by `ToNetfront`).
pub trait Sink {
    /// Emits a packet on an element output port.
    fn push(&mut self, port: usize, pkt: Packet);

    /// Transmits a packet out of the router on an interface.
    fn transmit(&mut self, iface: u16, pkt: Packet);
}

/// A [`Sink`] that records everything, for unit-testing elements in
/// isolation.
#[derive(Debug, Default)]
pub struct VecSink {
    /// Packets pushed to output ports, in emission order.
    pub pushed: Vec<(usize, Packet)>,
    /// Packets transmitted out of the router, in emission order.
    pub transmitted: Vec<(u16, Packet)>,
}

impl VecSink {
    /// A fresh, empty sink.
    pub fn new() -> VecSink {
        VecSink::default()
    }

    /// The single packet pushed on `port`, if exactly one was pushed overall.
    pub fn only(&self, port: usize) -> Option<&Packet> {
        match self.pushed.as_slice() {
            [(p, pkt)] if *p == port => Some(pkt),
            _ => None,
        }
    }
}

impl Sink for VecSink {
    fn push(&mut self, port: usize, pkt: Packet) {
        self.pushed.push((port, pkt));
    }

    fn transmit(&mut self, iface: u16, pkt: Packet) {
        self.transmitted.push((iface, pkt));
    }
}

/// Number of input and output ports an element exposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortCount {
    /// Number of input ports.
    pub inputs: usize,
    /// Number of output ports.
    pub outputs: usize,
}

impl PortCount {
    /// The common one-in/one-out shape.
    pub const ONE_ONE: PortCount = PortCount {
        inputs: 1,
        outputs: 1,
    };

    /// Builds a port count.
    pub fn new(inputs: usize, outputs: usize) -> PortCount {
        PortCount { inputs, outputs }
    }
}

/// Errors raised while configuring an element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ElementError {
    /// The element class is not in the registry — the request must be
    /// rejected because static analysis has no model for it (paper §4.1:
    /// "we can automatically analyze the client's processing as long as it
    /// relies only on known elements").
    UnknownClass(String),
    /// The arguments did not parse.
    BadArgs {
        /// Element class being configured.
        class: &'static str,
        /// What was wrong.
        message: String,
    },
}

impl std::fmt::Display for ElementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ElementError::UnknownClass(c) => write!(f, "unknown element class '{c}'"),
            ElementError::BadArgs { class, message } => {
                write!(f, "bad arguments for {class}: {message}")
            }
        }
    }
}

impl std::error::Error for ElementError {}

/// A packet-processing element.
///
/// Elements are single-threaded state machines: the router guarantees that
/// `push` and `tick` are never called concurrently. All inter-element
/// communication happens through packets (the property the paper relies on
/// when consolidating multiple tenants into one VM, §5).
///
/// The trait says only what an element computes. Its class is the row of
/// the class table it was built from, and its concrete type is reached by
/// upcasting the element itself to `dyn Any` (`&*el as &dyn Any`, never the
/// `Box`, which is an `Any` of its own).
pub trait Element: Send + Any {
    /// How many input and output ports this instance exposes.
    fn ports(&self) -> PortCount;

    /// Processes one packet arriving on `port`.
    fn push(&mut self, port: usize, pkt: Packet, ctx: &Context, out: &mut dyn Sink);

    /// Advances virtual time; timed elements (queues, shapers, batchers)
    /// release packets here.
    fn tick(&mut self, _ctx: &Context, _out: &mut dyn Sink) {}

    /// The earliest virtual time at which this element wants a `tick`, if
    /// any. Drivers use this to schedule wake-ups instead of polling.
    fn next_tick_ns(&self) -> Option<u64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use innet_packet::PacketBuilder;

    #[test]
    fn vec_sink_records_in_order() {
        let mut s = VecSink::new();
        s.push(0, PacketBuilder::udp().build());
        s.transmit(3, PacketBuilder::udp().build());
        s.push(1, PacketBuilder::udp().build());
        assert_eq!(s.pushed.len(), 2);
        assert_eq!(s.pushed[0].0, 0);
        assert_eq!(s.pushed[1].0, 1);
        assert_eq!(s.transmitted[0].0, 3);
    }

    #[test]
    fn only_helper() {
        let mut s = VecSink::new();
        assert!(s.only(0).is_none());
        s.push(0, PacketBuilder::udp().build());
        assert!(s.only(0).is_some());
        assert!(s.only(1).is_none());
        s.push(0, PacketBuilder::udp().build());
        assert!(s.only(0).is_none(), "two packets -> not 'only'");
    }
}
