//! `TransparentProxy` — interception of HTTP traffic toward a proxy.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use innet_packet::{FlowKey, IpProto, Packet};

use crate::{
    args::ConfigArgs,
    element::{Context, Element, ElementError, PortCount, Sink},
};

/// `TransparentProxy(PROXY_ADDR, PROXY_PORT[, INTERCEPT_PORT])`.
///
/// Input 0 (client → server): TCP packets whose destination port is
/// `INTERCEPT_PORT` (default 80) are redirected to the proxy — destination
/// address/port rewritten, original destination remembered. Other traffic
/// passes untouched. Output 0.
///
/// Input 1 (proxy → client): the reverse rewrite restores the original
/// server as the apparent source. Output 1.
///
/// This element intercepts traffic *addressed to someone else* and emits
/// packets whose source is the (spoofed) original server — which is why
/// Table 1 marks the transparent proxy as unsafe for third parties and
/// clients, and acceptable only for the operator itself.
#[derive(Debug)]
pub struct TransparentProxy {
    proxy: Ipv4Addr,
    proxy_port: u16,
    intercept_port: u16,
    /// proxy-side flow key -> original (server addr, server port).
    restore: HashMap<FlowKey, (Ipv4Addr, u16)>,
    redirected: u64,
    passed: u64,
}

impl TransparentProxy {
    /// Parses `TransparentProxy(...)`.
    pub fn from_args(args: &ConfigArgs) -> Result<TransparentProxy, ElementError> {
        args.expect_len_range(2, 3)?;
        Ok(TransparentProxy {
            proxy: args.addr_at(0)?,
            proxy_port: args.parse_at(1)?,
            intercept_port: args.parse_or(2, 80)?,
            restore: HashMap::new(),
            redirected: 0,
            passed: 0,
        })
    }

    /// Counters: (redirected, passed untouched).
    pub fn counters(&self) -> (u64, u64) {
        (self.redirected, self.passed)
    }

    /// The configured redirect target: (proxy addr, proxy port,
    /// intercepted destination port).
    pub fn params(&self) -> (Ipv4Addr, u16, u16) {
        (self.proxy, self.proxy_port, self.intercept_port)
    }
}

impl Element for TransparentProxy {
    fn ports(&self) -> PortCount {
        PortCount::new(2, 2)
    }

    fn push(&mut self, port: usize, mut pkt: Packet, _ctx: &Context, out: &mut dyn Sink) {
        match port {
            0 => {
                let intercept = pkt.ip_proto() == Ok(IpProto::Tcp)
                    && pkt
                        .tcp()
                        .map(|t| t.dst_port() == self.intercept_port)
                        .unwrap_or(false);
                if intercept {
                    let key = FlowKey::of(&pkt).expect("TCP packet has a key");
                    let orig = (key.dst, key.dst_port);
                    let new_key = FlowKey {
                        dst: self.proxy,
                        dst_port: self.proxy_port,
                        ..key
                    };
                    // A reply from the proxy arrives with the reversed
                    // proxy-side tuple.
                    self.restore.insert(new_key.reversed(), orig);
                    if let Ok(mut ip) = pkt.ipv4_mut() {
                        ip.set_dst(self.proxy);
                        ip.update_checksum();
                    }
                    if let Ok(mut t) = pkt.tcp_mut() {
                        t.set_dst_port(self.proxy_port);
                    }
                    self.redirected += 1;
                } else {
                    self.passed += 1;
                }
                out.push(0, pkt);
            }
            _ => {
                if let Ok(key) = FlowKey::of(&pkt) {
                    if let Some(&(addr, p)) = self.restore.get(&key) {
                        if let Ok(mut ip) = pkt.ipv4_mut() {
                            ip.set_src(addr);
                            ip.update_checksum();
                        }
                        if let Ok(mut t) = pkt.tcp_mut() {
                            t.set_src_port(p);
                        }
                    }
                }
                out.push(1, pkt);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::VecSink;
    use innet_packet::PacketBuilder;

    const PROXY: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 80);
    const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const SERVER: Ipv4Addr = Ipv4Addr::new(93, 184, 216, 34);

    fn tp() -> TransparentProxy {
        TransparentProxy::from_args(&ConfigArgs::parse("TransparentProxy", "192.0.2.80, 3128"))
            .unwrap()
    }

    #[test]
    fn http_redirected_to_proxy() {
        let mut p = tp();
        let mut s = VecSink::new();
        let req = PacketBuilder::tcp()
            .src(CLIENT, 5000)
            .dst(SERVER, 80)
            .build();
        p.push(0, req, &Context::default(), &mut s);
        let out = s.only(0).unwrap();
        assert_eq!(out.ipv4().unwrap().dst(), PROXY);
        assert_eq!(out.tcp().unwrap().dst_port(), 3128);
    }

    #[test]
    fn non_http_passes() {
        let mut p = tp();
        let mut s = VecSink::new();
        let ssh = PacketBuilder::tcp()
            .src(CLIENT, 5000)
            .dst(SERVER, 22)
            .build();
        p.push(0, ssh, &Context::default(), &mut s);
        let out = s.only(0).unwrap();
        assert_eq!(out.ipv4().unwrap().dst(), SERVER);
        assert_eq!(p.counters(), (0, 1));
    }

    #[test]
    fn reply_spoofs_original_server() {
        let mut p = tp();
        let mut s = VecSink::new();
        p.push(
            0,
            PacketBuilder::tcp()
                .src(CLIENT, 5000)
                .dst(SERVER, 80)
                .build(),
            &Context::default(),
            &mut s,
        );
        let reply = PacketBuilder::tcp()
            .src(PROXY, 3128)
            .dst(CLIENT, 5000)
            .build();
        p.push(1, reply, &Context::default(), &mut s);
        let out = &s.pushed[1].1;
        assert_eq!(out.ipv4().unwrap().src(), SERVER, "proxy is invisible");
        assert_eq!(out.tcp().unwrap().src_port(), 80);
    }
}
