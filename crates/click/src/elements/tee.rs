//! Duplication elements: `Tee` and `IPMulticast`.

use std::net::Ipv4Addr;

use innet_packet::Packet;

use crate::{
    args::ConfigArgs,
    element::{Context, Element, ElementError, PortCount, Sink},
};

/// `Tee(N)` — copies each packet to all N output ports.
#[derive(Debug)]
pub struct Tee {
    n: usize,
}

impl Tee {
    /// Parses `Tee(N)`.
    pub fn from_args(args: &ConfigArgs) -> Result<Tee, ElementError> {
        args.expect_len_range(0, 1)?;
        let n: usize = args.parse_or(0, 2)?;
        if n == 0 {
            return Err(ElementError::BadArgs {
                class: "Tee",
                message: "needs at least one output".to_string(),
            });
        }
        Ok(Tee { n })
    }
}

impl Element for Tee {
    fn ports(&self) -> PortCount {
        PortCount::new(1, self.n)
    }

    fn push(&mut self, _port: usize, pkt: Packet, _ctx: &Context, out: &mut dyn Sink) {
        for i in 0..self.n - 1 {
            out.push(i, pkt.clone());
        }
        out.push(self.n - 1, pkt);
    }
}

/// `IPMulticast(DST, DST, ...)` — emits one copy of each packet per
/// configured destination, with the destination address rewritten.
///
/// This is Table 1's "multicast" middlebox: it is statically safe for any
/// requester because the set of destinations it can emit to is a
/// compile-time constant that the controller checks against the
/// white-list.
#[derive(Debug)]
pub struct IpMulticast {
    dsts: Vec<Ipv4Addr>,
    replicated: u64,
}

impl IpMulticast {
    /// Parses `IPMulticast(DST, ...)`.
    pub fn from_args(args: &ConfigArgs) -> Result<IpMulticast, ElementError> {
        if args.is_empty() {
            return Err(ElementError::BadArgs {
                class: "IPMulticast",
                message: "needs at least one destination".to_string(),
            });
        }
        let dsts = (0..args.len())
            .map(|i| args.addr_at(i))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(IpMulticast {
            dsts,
            replicated: 0,
        })
    }

    /// The configured replica destinations.
    pub fn destinations(&self) -> &[Ipv4Addr] {
        &self.dsts
    }
}

impl Element for IpMulticast {
    fn ports(&self) -> PortCount {
        PortCount::ONE_ONE
    }

    fn push(&mut self, _port: usize, pkt: Packet, _ctx: &Context, out: &mut dyn Sink) {
        for dst in &self.dsts {
            let mut copy = pkt.clone();
            if let Ok(mut ip) = copy.ipv4_mut() {
                ip.set_dst(*dst);
                ip.update_checksum();
            }
            self.replicated += 1;
            out.push(0, copy);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::VecSink;
    use innet_packet::PacketBuilder;

    #[test]
    fn tee_duplicates_to_all_ports() {
        let mut t = Tee::from_args(&ConfigArgs::parse("Tee", "3")).unwrap();
        let mut s = VecSink::new();
        t.push(0, PacketBuilder::udp().build(), &Context::default(), &mut s);
        let ports: Vec<usize> = s.pushed.iter().map(|(p, _)| *p).collect();
        assert_eq!(ports, vec![0, 1, 2]);
        assert_eq!(s.pushed[0].1.bytes(), s.pushed[2].1.bytes());
    }

    #[test]
    fn multicast_rewrites_each_copy() {
        let mut m =
            IpMulticast::from_args(&ConfigArgs::parse("IPMulticast", "1.1.1.1, 2.2.2.2")).unwrap();
        let mut s = VecSink::new();
        m.push(0, PacketBuilder::udp().build(), &Context::default(), &mut s);
        assert_eq!(s.pushed.len(), 2);
        let dsts: Vec<Ipv4Addr> = s
            .pushed
            .iter()
            .map(|(_, p)| p.ipv4().unwrap().dst())
            .collect();
        assert_eq!(
            dsts,
            vec![Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(2, 2, 2, 2)]
        );
        assert!(s
            .pushed
            .iter()
            .all(|(_, p)| p.ipv4().unwrap().verify_checksum()));
    }

    #[test]
    fn zero_outputs_rejected() {
        assert!(Tee::from_args(&ConfigArgs::parse("Tee", "0")).is_err());
        assert!(IpMulticast::from_args(&ConfigArgs::parse("IPMulticast", "")).is_err());
    }
}
