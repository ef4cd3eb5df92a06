//! Sandbox injection (paper §4.4): wrapping a processing module with
//! `ChangeEnforcer` elements.
//!
//! One enforcer instance is created per module interface; it is spliced
//! onto the path from `FromNetfront(i)` into the module (input/output 0)
//! and onto the path from the module into `ToNetfront(i)` (input/output
//! 1). The enforcer elements are part of the client's configuration, so
//! the client is billed for its own sandboxing — as the paper notes.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use innet_click::{class_info, ClickConfig, Connection, Netfront, PortRef};

fn iface_of(args: &[String]) -> u16 {
    args.first()
        .and_then(|a| a.trim().parse().ok())
        .unwrap_or(0)
}

/// Returns a copy of `cfg` with a `ChangeEnforcer(module_addr, …)` spliced
/// around every netfront interface.
pub fn wrap_with_enforcer(
    cfg: &ClickConfig,
    module_addr: Ipv4Addr,
    whitelist: &[Ipv4Addr],
) -> ClickConfig {
    let mut out = cfg.clone();

    // Interface -> enforcer element name (created on demand).
    let mut enforcers: HashMap<u16, String> = HashMap::new();
    let mut enforcer_args = vec![module_addr.to_string()];
    enforcer_args.extend(whitelist.iter().map(|a| a.to_string()));
    let enforcer_arg_refs: Vec<&str> = enforcer_args.iter().map(|s| s.as_str()).collect();

    let mut ensure_enforcer = |out: &mut ClickConfig, iface: u16| -> String {
        if let Some(name) = enforcers.get(&iface) {
            return name.clone();
        }
        let name = format!("__enforcer{iface}");
        out.add_element(&name, "ChangeEnforcer", &enforcer_arg_refs);
        enforcers.insert(iface, name.clone());
        name
    };

    // Map interface numbers of sources and sinks.
    let mut from_ifaces: HashMap<&str, u16> = HashMap::new();
    let mut to_ifaces: HashMap<&str, u16> = HashMap::new();
    for e in &cfg.elements {
        match class_info(&e.class).and_then(|c| c.netfront) {
            Some(Netfront::Entry) => {
                from_ifaces.insert(e.name.as_str(), iface_of(&e.args));
            }
            Some(Netfront::Exit) => {
                to_ifaces.insert(e.name.as_str(), iface_of(&e.args));
            }
            None => {}
        }
    }

    // Rewrite connections through the enforcers. A connection leaving a
    // `FromNetfront` is spliced through the enforcer's world→module path
    // (ports 0/0); a connection entering a `ToNetfront` through its
    // module→world path (ports 1/1). A direct source→sink connection gets
    // both splices.
    let conns = std::mem::take(&mut out.connections);
    let mut new_conns = Vec::with_capacity(conns.len());
    for c in &conns {
        let mut from = c.from.clone();
        let mut to = c.to.clone();
        if let Some(&iface) = from_ifaces.get(c.from.element.as_str()) {
            let enf = ensure_enforcer(&mut out, iface);
            new_conns.push(Connection {
                from,
                to: PortRef::new(&enf, 0),
            });
            from = PortRef::new(&enf, 0);
        }
        if let Some(&iface) = to_ifaces.get(c.to.element.as_str()) {
            let enf = ensure_enforcer(&mut out, iface);
            new_conns.push(Connection {
                from: PortRef::new(&enf, 1),
                to,
            });
            to = PortRef::new(&enf, 1);
        }
        new_conns.push(Connection { from, to });
    }
    out.connections = new_conns;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use innet_click::{elements::ChangeEnforcer, Registry, Router};
    use innet_packet::PacketBuilder;

    const MODULE: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 10);
    const CLIENT: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 7);

    fn wrapped() -> ClickConfig {
        let cfg = ClickConfig::parse(
            // A module that spoofs: rewrites the source and reflects to a
            // fixed victim. The enforcer must contain it.
            "FromNetfront() -> SetIPSrc(192.0.2.10) -> SetIPDst(198.51.100.66) -> ToNetfront();",
        )
        .unwrap();
        wrap_with_enforcer(&cfg, MODULE, &[])
    }

    #[test]
    fn enforcer_spliced_once_per_interface() {
        let cfg = wrapped();
        assert_eq!(cfg.elements_of_class("ChangeEnforcer").len(), 1);
        cfg.validate().unwrap();
    }

    #[test]
    fn wrapped_module_cannot_reach_unauthorized_destinations() {
        let mut r = Router::from_config(&wrapped(), &Registry::standard()).unwrap();
        // An innocent sender triggers the module; the module redirects
        // toward the victim, which never authorized anything.
        let pkt = PacketBuilder::udp().src(CLIENT, 1).dst(MODULE, 2).build();
        r.deliver(0, pkt, 0).unwrap();
        assert!(r.take_tx().is_empty(), "enforcer blocked the reflection");
        let enf = r
            .element_as::<ChangeEnforcer>("__enforcer0")
            .expect("enforcer instantiated");
        assert_eq!(enf.counters().3, 1, "blocked as unauthorized destination");
    }

    #[test]
    fn wrapped_module_may_answer_the_sender() {
        // A responder module: replies flow back to the implicit
        // authorizer and must pass.
        let cfg =
            ClickConfig::parse("FromNetfront() -> ICMPPingResponder() -> ToNetfront();").unwrap();
        let wrapped = wrap_with_enforcer(&cfg, MODULE, &[]);
        let mut r = Router::from_config(&wrapped, &Registry::standard()).unwrap();
        let ping = PacketBuilder::icmp_echo_request(5, 1)
            .src_addr(CLIENT)
            .dst_addr(MODULE)
            .build();
        r.deliver(0, ping, 0).unwrap();
        let tx = r.take_tx();
        assert_eq!(tx.len(), 1, "reply passes the enforcer");
        assert_eq!(tx[0].1.ipv4().unwrap().dst(), CLIENT);
    }

    #[test]
    fn multi_interface_module_gets_two_enforcers() {
        let cfg = ClickConfig::parse(
            r#"
            a :: FromNetfront(0); b :: FromNetfront(1);
            ta :: ToNetfront(0); tb :: ToNetfront(1);
            a -> tb; b -> ta;
            "#,
        )
        .unwrap();
        let wrapped = wrap_with_enforcer(&cfg, MODULE, &[]);
        assert_eq!(wrapped.elements_of_class("ChangeEnforcer").len(), 2);
        wrapped.validate().unwrap();
    }
}
