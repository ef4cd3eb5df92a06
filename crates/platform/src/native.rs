//! The stock configurations the evaluation executes natively: the
//! consolidated multi-tenant demux of Figure 8, the plain and sandboxed
//! firewalls of Figure 11, the middlebox sweep of Figure 12, and the
//! bidirectional NAT gateway and stateful firewall the sharded runner's
//! differential tests drive. [`RunnerConfig`](crate::RunnerConfig) turns
//! any of them into a runner.

use std::net::Ipv4Addr;

use innet_click::ClickConfig;

/// Builds the consolidated multi-tenant configuration of §5/Figure 8:
/// one `IPClassifier` demultiplexer with a `dst host` rule per client,
/// each output feeding that client's firewall, all re-multiplexed onto
/// the outgoing interface.
pub fn consolidated_config(clients: &[Ipv4Addr]) -> ClickConfig {
    let mut cfg = ClickConfig::new();
    cfg.add_element("src", "FromNetfront", &[]);
    cfg.add_element("snk", "ToNetfront", &[]);
    let rules: Vec<String> = clients.iter().map(|a| format!("dst host {a}")).collect();
    let rule_refs: Vec<&str> = rules.iter().map(|s| s.as_str()).collect();
    cfg.add_element("demux", "IPClassifier", &rule_refs);
    cfg.connect("src", 0, "demux", 0);
    for (i, addr) in clients.iter().enumerate() {
        let udp = format!("allow udp dst host {addr}");
        let tcp = format!("allow tcp dst host {addr}");
        let fw = cfg.add_element(format!("fw{i}"), "IPFilter", &[&udp, &tcp]);
        cfg.connect("demux", i, &fw, 0);
        cfg.connect(&fw, 0, "snk", 0);
    }
    cfg
}

/// The middlebox configurations of the Figure 12 sweep. Returns `None`
/// for an unknown kind instead of panicking, so callers handling
/// externally supplied kind strings can fail gracefully.
pub fn middlebox_config(kind: &str) -> Option<ClickConfig> {
    let text = match kind {
        "nat" => "FromNetfront() -> [0]n :: IPNAT(203.0.113.1); n[0] -> ToNetfront();".to_string(),
        "iprouter" => "FromNetfront() -> CheckIPHeader() -> DecIPTTL() \
             -> r :: StaticIPLookup(0.0.0.0/0 0); r[0] -> ToNetfront();"
            .to_string(),
        "firewall" => {
            "FromNetfront() -> IPFilter(allow udp, allow tcp dst port 80) -> ToNetfront();"
                .to_string()
        }
        "flowmeter" => "FromNetfront() -> FlowMeter() -> ToNetfront();".to_string(),
        _ => return None,
    };
    Some(ClickConfig::parse(&text).expect("middlebox configs are valid"))
}

/// Builds a bidirectional NAT gateway: interface 0 faces the inside
/// network, interface 1 the outside, with `IPNAT(public)` between them.
///
/// Outbound packets (ingress 0) enter the NAT's inside port and leave
/// rewritten on interface 1; inbound packets (ingress 1) enter the
/// outside port and leave translated on interface 0. This is the
/// configuration the parallel runner's stateful differential tests
/// drive with interleaved forward and reverse traffic: both directions
/// of a connection must land on the same replica (the symmetric
/// dispatch hash guarantees it) for the reverse path to find its
/// mapping.
pub fn nat_gateway_config(public: Ipv4Addr) -> ClickConfig {
    ClickConfig::parse(&format!(
        "inside :: FromNetfront(0); outside :: FromNetfront(1); \
         nat :: IPNAT({public}); \
         inside -> [0]nat; outside -> [1]nat; \
         nat[0] -> ToNetfront(1); nat[1] -> ToNetfront(0);"
    ))
    .expect("valid literal config")
}

/// Builds a bidirectional stateful firewall: interface 0 inside,
/// interface 1 outside, allowing outbound UDP and TCP and only
/// *related* inbound traffic. Like [`nat_gateway_config`], this keeps
/// per-connection state only, so it shards under the symmetric hash.
pub fn stateful_firewall_config() -> ClickConfig {
    ClickConfig::parse(
        "inside :: FromNetfront(0); outside :: FromNetfront(1); \
         fw :: StatefulFirewall(allow udp, allow tcp); \
         inside -> [0]fw; outside -> [1]fw; \
         fw[0] -> ToNetfront(1); fw[1] -> ToNetfront(0);",
    )
    .expect("valid literal config")
}

/// Wraps the firewall with a `ChangeEnforcer` on the world→module (RX)
/// path, the direction the paper's Figure 11 measures: every received
/// packet pays the enforcer's implicit-authorization bookkeeping before
/// reaching the firewall.
pub fn sandboxed_firewall(module_addr: Ipv4Addr, whitelist: Ipv4Addr) -> ClickConfig {
    ClickConfig::parse(&format!(
        "FromNetfront() -> [0]enf :: ChangeEnforcer({module_addr}, {whitelist}); \
         enf[0] -> IPFilter(allow udp, allow tcp) -> ToNetfront();"
    ))
    .expect("valid literal config")
}

/// The plain firewall the sandboxed variant is compared against.
pub fn plain_firewall() -> ClickConfig {
    ClickConfig::parse("FromNetfront() -> IPFilter(allow udp, allow tcp) -> ToNetfront();")
        .expect("valid literal config")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ParallelRunner, RunnerConfig};
    use innet_packet::{FlowKey, Packet, PacketBuilder};

    fn runner(cfg: &ClickConfig) -> ParallelRunner {
        RunnerConfig::new().parallel(cfg).unwrap()
    }

    #[test]
    fn consolidated_config_isolates_clients() {
        let clients: Vec<Ipv4Addr> = (0..10).map(|i| Ipv4Addr::new(203, 0, 113, 1 + i)).collect();
        let cfg = consolidated_config(&clients);
        cfg.validate().unwrap();
        let mut runner = runner(&cfg);
        // Traffic to client 3 passes; to a stranger drops.
        let ok = PacketBuilder::udp().dst(clients[3], 80).build();
        let bad = PacketBuilder::udp()
            .dst(Ipv4Addr::new(9, 9, 9, 9), 80)
            .build();
        let stats = runner.run(&[ok, bad], 1);
        assert_eq!(stats.packets, 2);
        assert_eq!(stats.transmitted, 1);
    }

    #[test]
    fn plain_firewall_forwards_everything() {
        // The rate itself is measured by the benches; inside `cargo test`
        // only the deterministic half is asserted.
        let mut runner = runner(&plain_firewall());
        let pkts: Vec<Packet> = (0..64)
            .map(|i| {
                PacketBuilder::udp()
                    .dst(Ipv4Addr::new(10, 0, 0, 1), i)
                    .pad_to(64)
                    .build()
            })
            .collect();
        let stats = runner.run(&pkts, 50);
        assert_eq!(stats.packets, 64 * 50);
        assert_eq!(stats.transmitted, stats.packets);
    }

    #[test]
    fn sandbox_costs_throughput() {
        let module = Ipv4Addr::new(203, 0, 113, 10);
        let white = Ipv4Addr::new(198, 51, 100, 1);
        let pkts: Vec<Packet> = (0..64)
            .map(|i| {
                PacketBuilder::udp()
                    .src(
                        Ipv4Addr::new(8, 8, 8, (i % 250) as u8 + 1),
                        40_000 + i as u16,
                    )
                    .dst(module, 1500)
                    .pad_to(64)
                    .build()
            })
            .collect();
        let mut plain = runner(&plain_firewall());
        let mut boxed = runner(&sandboxed_firewall(module, white));
        let p = plain.run(&pkts, 50);
        let b = boxed.run(&pkts, 50);
        // Functional: the sandboxed RX path forwards everything (inbound
        // traffic to the module is always allowed), it just costs more.
        assert_eq!(b.transmitted, b.packets);
        assert_eq!(p.transmitted, p.packets);
        // The cost *comparison* is measured by the Figure 11 bench in
        // release mode; asserting relative wall-clock times in a debug
        // test would be flaky.
    }

    #[test]
    fn nat_gateway_translates_both_directions() {
        let public = Ipv4Addr::new(203, 0, 113, 1);
        let cfg = nat_gateway_config(public);
        cfg.validate().unwrap();
        let mut runner = runner(&cfg);
        // Outbound from the inside network (ingress 0)...
        let out = PacketBuilder::udp()
            .src(Ipv4Addr::new(10, 0, 0, 7), 5000)
            .dst(Ipv4Addr::new(8, 8, 8, 8), 53)
            .build();
        let (_, tx) = runner.run_collect(&[out], 1);
        assert_eq!(tx.len(), 1);
        let (egress, rewritten) = &tx[0];
        assert_eq!(*egress, 1, "outbound leaves on the outside interface");
        let ip = rewritten.ipv4().unwrap();
        assert_eq!(ip.src(), public);
        // ...and the reply (ingress 1) translates back to the inside host.
        let mapped = FlowKey::of(rewritten).unwrap().src_port;
        let mut reply = PacketBuilder::udp()
            .src(Ipv4Addr::new(8, 8, 8, 8), 53)
            .dst(public, mapped)
            .build();
        reply.meta.ingress = 1;
        let (_, tx) = runner.run_collect(&[reply], 1);
        assert_eq!(tx.len(), 1);
        assert_eq!(tx[0].0, 0, "inbound leaves on the inside interface");
        let ip = tx[0].1.ipv4().unwrap();
        assert_eq!(ip.dst(), Ipv4Addr::new(10, 0, 0, 7));
    }

    #[test]
    fn stateful_firewall_blocks_unrelated_inbound() {
        let cfg = stateful_firewall_config();
        cfg.validate().unwrap();
        let mut runner = runner(&cfg);
        // Unsolicited inbound drops; after an outbound packet opens the
        // connection, the reverse direction passes.
        let mut unsolicited = PacketBuilder::udp()
            .src(Ipv4Addr::new(8, 8, 8, 8), 53)
            .dst(Ipv4Addr::new(10, 0, 0, 7), 5000)
            .build();
        unsolicited.meta.ingress = 1;
        let stats = runner.run(&[unsolicited.clone()], 1);
        assert_eq!(stats.transmitted, 0);
        let outbound = PacketBuilder::udp()
            .src(Ipv4Addr::new(10, 0, 0, 7), 5000)
            .dst(Ipv4Addr::new(8, 8, 8, 8), 53)
            .build();
        let stats = runner.run(&[outbound], 1);
        assert_eq!(stats.transmitted, 1);
        let stats = runner.run(&[unsolicited], 1);
        assert_eq!(stats.transmitted, 1, "related inbound now passes");
    }

    #[test]
    fn middlebox_configs_run() {
        assert!(middlebox_config("frobnicator").is_none());
        for kind in ["nat", "iprouter", "firewall", "flowmeter"] {
            let cfg = middlebox_config(kind).unwrap();
            let mut runner = runner(&cfg);
            let pkts = vec![PacketBuilder::udp().ttl(64).build()];
            let stats = runner.run(&pkts, 10);
            assert_eq!(stats.transmitted, 10, "{kind} forwards traffic");
        }
    }
}
