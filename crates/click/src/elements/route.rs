//! `StaticIPLookup` — longest-prefix-match routing.

use innet_packet::{Cidr, Packet};

use crate::{
    args::ConfigArgs,
    element::{Context, Element, ElementError, PortCount, Sink},
};

/// `StaticIPLookup(CIDR PORT, CIDR PORT, ...)` — sends each packet to the
/// output port of the longest matching prefix for its destination address;
/// packets matching no route are dropped.
///
/// Combined with `DecIPTTL` and `CheckIPHeader` this forms the "IP router"
/// middlebox of Table 1 and Figure 12.
#[derive(Debug)]
pub struct StaticIPLookup {
    /// Routes sorted by descending prefix length (so the first match is
    /// the longest).
    routes: Vec<(Cidr, usize)>,
    n_outputs: usize,
    no_route: u64,
}

impl StaticIPLookup {
    /// Parses `StaticIPLookup(...)`.
    pub fn from_args(args: &ConfigArgs) -> Result<StaticIPLookup, ElementError> {
        let bad = |message: String| ElementError::BadArgs {
            class: "StaticIPLookup",
            message,
        };
        if args.is_empty() {
            return Err(bad("needs at least one route".to_string()));
        }
        let mut routes = Vec::new();
        for arg in args.all() {
            let mut it = arg.split_whitespace();
            let (Some(cidr_s), Some(port_s), None) = (it.next(), it.next(), it.next()) else {
                return Err(bad(format!("route must be 'CIDR PORT', got '{arg}'")));
            };
            let cidr: Cidr = cidr_s
                .parse()
                .map_err(|_| bad(format!("bad prefix '{cidr_s}'")))?;
            let port: usize = port_s
                .parse()
                .map_err(|_| bad(format!("bad port '{port_s}'")))?;
            routes.push((cidr, port));
        }
        routes.sort_by_key(|r| std::cmp::Reverse(r.0.prefix_len()));
        let n_outputs = routes.iter().map(|&(_, p)| p + 1).max().unwrap_or(1);
        Ok(StaticIPLookup {
            routes,
            n_outputs,
            no_route: 0,
        })
    }

    /// The route table, in match order.
    pub fn routes(&self) -> &[(Cidr, usize)] {
        &self.routes
    }

    /// Packets dropped for lack of a route.
    pub fn no_route(&self) -> u64 {
        self.no_route
    }
}

impl Element for StaticIPLookup {
    fn ports(&self) -> PortCount {
        PortCount::new(1, self.n_outputs)
    }

    fn push(&mut self, _port: usize, pkt: Packet, _ctx: &Context, out: &mut dyn Sink) {
        let Ok(ip) = pkt.ipv4() else {
            self.no_route += 1;
            return;
        };
        let dst = ip.dst();
        match self.routes.iter().find(|(c, _)| c.contains(dst)) {
            Some(&(_, port)) => out.push(port, pkt),
            None => self.no_route += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::VecSink;
    use innet_packet::PacketBuilder;
    use std::net::Ipv4Addr;

    fn lookup() -> StaticIPLookup {
        StaticIPLookup::from_args(&ConfigArgs::parse(
            "StaticIPLookup",
            "10.0.0.0/8 0, 10.1.0.0/16 1, 0.0.0.0/0 2",
        ))
        .unwrap()
    }

    fn to(dst: Ipv4Addr) -> Packet {
        PacketBuilder::udp().dst_addr(dst).build()
    }

    #[test]
    fn longest_prefix_wins() {
        let mut l = lookup();
        let mut s = VecSink::new();
        l.push(
            0,
            to(Ipv4Addr::new(10, 1, 2, 3)),
            &Context::default(),
            &mut s,
        );
        l.push(
            0,
            to(Ipv4Addr::new(10, 9, 2, 3)),
            &Context::default(),
            &mut s,
        );
        l.push(
            0,
            to(Ipv4Addr::new(8, 8, 8, 8)),
            &Context::default(),
            &mut s,
        );
        let ports: Vec<usize> = s.pushed.iter().map(|(p, _)| *p).collect();
        assert_eq!(ports, vec![1, 0, 2]);
    }

    #[test]
    fn no_default_route_drops() {
        let mut l = StaticIPLookup::from_args(&ConfigArgs::parse("StaticIPLookup", "10.0.0.0/8 0"))
            .unwrap();
        let mut s = VecSink::new();
        l.push(
            0,
            to(Ipv4Addr::new(8, 8, 8, 8)),
            &Context::default(),
            &mut s,
        );
        assert!(s.pushed.is_empty());
        assert_eq!(l.no_route(), 1);
    }

    #[test]
    fn output_count_from_routes() {
        assert_eq!(lookup().ports().outputs, 3);
    }

    #[test]
    fn bad_routes_rejected() {
        for bad in [
            "10.0.0.0/8",
            "10.0.0.0/8 x",
            "banana 0",
            "10.0.0.0/8 0 extra",
        ] {
            assert!(
                StaticIPLookup::from_args(&ConfigArgs::parse("StaticIPLookup", bad)).is_err(),
                "{bad} should fail"
            );
        }
    }
}
