//! Consolidation planning (§5): which verified modules may share a VM.
//!
//! "It is better to run multiple users' configurations in the same
//! virtual machine, as long as we can guarantee isolation. … Standard
//! Click elements do not share memory, and they only communicate via
//! packets. This implies that running static analysis with SYMNET on
//! individual configurations is enough to decide whether it is safe to
//! merge them. … Our prototype takes the simpler option of not
//! consolidating clients running stateful processing."
//!
//! "Stateful" means any cross-packet state, read from the class table
//! ([`innet_click::class_info`]): a module shares the VM only when every
//! element is [`Shardability::Stateless`]. Per-flow state is as much a
//! reason as cross-flow state, because a tenant can grow either or
//! couple flows through it (DESIGN.md §5). A shared module also needs a
//! single entry netfront, which the VM's demultiplexer replaces.

use std::collections::HashMap;

use innet_click::{class_info, ClickConfig, ElementDecl, Netfront, Shardability};
use innet_topology::{NodeId, NodeKind, Topology};

use crate::netmodel::InstalledModule;

/// Whether a configuration keeps any cross-packet state: some element's
/// class is not [`Shardability::Stateless`], or is unknown.
pub fn is_stateful(cfg: &ClickConfig) -> bool {
    cfg.elements
        .iter()
        .any(|e| class_info(&e.class).is_none_or(|c| c.state != Shardability::Stateless))
}

/// The elements of `cfg` on the `side` of its boundary.
fn netfronts(cfg: &ClickConfig, side: Netfront) -> impl Iterator<Item = &ElementDecl> {
    let on_side =
        move |e: &&ElementDecl| class_info(&e.class).and_then(|c| c.netfront) == Some(side);
    cfg.elements.iter().filter(on_side)
}

/// Whether a module needs a VM of its own: it runs behind a sandbox,
/// keeps state, or has more than one entry netfront.
fn needs_own_vm(m: &InstalledModule) -> bool {
    m.sandboxed || is_stateful(&m.config) || netfronts(&m.config, Netfront::Entry).count() > 1
}

/// A platform's VM packing plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsolidationPlan {
    /// Module names sharing the consolidated VM.
    pub shared: Vec<String>,
    /// Module names that get a dedicated VM each (stateful processing,
    /// several entry netfronts, and everything behind a sandbox).
    pub dedicated: Vec<String>,
}

/// Splits a platform's modules into one shared VM plus dedicated VMs.
pub fn plan(modules: &[InstalledModule]) -> ConsolidationPlan {
    let mut shared = Vec::new();
    let mut dedicated = Vec::new();
    for m in modules {
        if needs_own_vm(m) {
            dedicated.push(m.name.clone());
        } else {
            shared.push(m.name.clone());
        }
    }
    ConsolidationPlan { shared, dedicated }
}

/// Builds the consolidated VM configuration for the shared modules: an
/// `IPClassifier` demultiplexer keyed on module addresses, each output
/// feeding that module's (namespaced) graph, all exits re-multiplexed
/// onto the outgoing interface. No connections are added between tenant
/// graphs; `tests/tests/consolidation.rs` checks with the symbolic engine
/// that a tenant's traffic visits only the demux and that tenant's nodes,
/// and leaves as it would leave the tenant alone.
///
/// Every module must have at most one entry netfront, as [`plan`] ensures.
pub fn consolidated_vm_config(modules: &[&InstalledModule]) -> ClickConfig {
    let mut cfg = ClickConfig::new();
    cfg.add_element("vm_in", "FromNetfront", &[]);
    cfg.add_element("vm_out", "ToNetfront", &[]);
    let rules: Vec<String> = modules
        .iter()
        .map(|m| format!("dst host {}", m.addr))
        .collect();
    let rule_refs: Vec<&str> = rules.iter().map(|s| s.as_str()).collect();
    cfg.add_element("demux", "IPClassifier", &rule_refs);
    cfg.connect("vm_in", 0, "demux", 0);

    for (i, m) in modules.iter().enumerate() {
        cfg.merge_namespaced(&m.name, &m.config);
        // The tenant's own netfront boundary elements disappear inside the
        // shared VM: the demux replaces the sources (they would otherwise
        // collide on the VM's interface numbers) and the shared egress
        // replaces the sinks.
        let names = |side| -> Vec<String> {
            let decls = netfronts(&m.config, side);
            decls.map(|e| format!("{}/{}", m.name, e.name)).collect()
        };
        let source_names = names(Netfront::Entry);
        let sink_names = names(Netfront::Exit);
        let mut demux_wired = false;
        for c in &mut cfg.connections {
            if source_names.contains(&c.from.element) {
                // The demux output replaces the tenant source (a
                // consolidated stateless module has one entry path).
                assert!(
                    !demux_wired,
                    "consolidated modules must have a single ingress path"
                );
                c.from.element = "demux".to_string();
                c.from.port = i;
                demux_wired = true;
            }
            if sink_names.contains(&c.to.element) {
                c.to.element = "vm_out".to_string();
                c.to.port = 0;
            }
        }
        // Drop the orphaned boundary elements.
        cfg.elements
            .retain(|e| !source_names.contains(&e.name) && !sink_names.contains(&e.name));
    }
    cfg
}

/// A fleet-wide VM packing plan across every platform of a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetConsolidationPlan {
    /// The platform chosen to host the single fleet-wide shared VM —
    /// the one already hosting the most stateless tenants (ties broken
    /// by larger residual slot capacity, then smaller node id). `None`
    /// when no module is consolidable.
    pub home: Option<NodeId>,
    /// Module names sharing the consolidated VM on `home`.
    pub shared: Vec<String>,
    /// `(platform, module)` pairs that keep a dedicated VM where they
    /// are (the modules [`plan`] dedicates).
    pub dedicated: Vec<(NodeId, String)>,
    /// Relocations the plan implies: `(module, from, to)` for every
    /// shared tenant not already on `home` — the work list a fleet
    /// migration driver executes before merging the VMs.
    pub moves: Vec<(String, NodeId, NodeId)>,
}

/// Extends [`plan`] across hosts: stateless tenants from *all* platforms
/// consolidate into one shared VM, placed on the platform that already
/// hosts the most of them (so the plan moves the fewest VMs), while
/// stateful and sandboxed modules stay dedicated where they run. The
/// same isolation argument applies fleet-wide — verified configurations
/// only interact via packets, and the shared VM's demultiplexer keys on
/// addresses that remain unique across platforms.
pub fn plan_fleet(modules: &[InstalledModule], topo: &Topology) -> FleetConsolidationPlan {
    let mut shared = Vec::new();
    let mut dedicated = Vec::new();
    let mut stateless: Vec<(&InstalledModule, NodeId)> = Vec::new();
    let mut stateless_per: HashMap<NodeId, usize> = HashMap::new();
    let mut installed_per: HashMap<NodeId, usize> = HashMap::new();
    for m in modules {
        *installed_per.entry(m.platform).or_insert(0) += 1;
        if needs_own_vm(m) {
            dedicated.push((m.platform, m.name.clone()));
        } else {
            shared.push(m.name.clone());
            stateless.push((m, m.platform));
            *stateless_per.entry(m.platform).or_insert(0) += 1;
        }
    }
    let home = stateless_per
        .iter()
        .max_by_key(|(&p, &count)| {
            let residual = match topo.node(p).kind {
                NodeKind::Platform(ref spec) => spec
                    .capacity
                    .saturating_sub(installed_per.get(&p).copied().unwrap_or(0)),
                _ => 0,
            };
            (count, residual, std::cmp::Reverse(p))
        })
        .map(|(&p, _)| p);
    let moves = match home {
        Some(home) => stateless
            .iter()
            .filter(|&&(_, p)| p != home)
            .map(|&(m, p)| (m.name.clone(), p, home))
            .collect(),
        None => Vec::new(),
    };
    FleetConsolidationPlan {
        home,
        shared,
        dedicated,
        moves,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use innet_click::{Registry, Router};
    use innet_packet::PacketBuilder;
    use std::net::Ipv4Addr;

    fn module(name: &str, addr: Ipv4Addr, config: &str, sandboxed: bool) -> InstalledModule {
        InstalledModule {
            id: 0,
            name: name.to_string(),
            platform: 0,
            addr,
            config: ClickConfig::parse(config).unwrap(),
            sandboxed,
            owner: "o".to_string(),
        }
    }

    /// Valid arguments for every class that needs some (the rest take
    /// none), so each one-element module is a configuration that builds.
    const ARGS: &[(&str, &[&str])] = &[
        ("BandwidthShaper", &["1000"]),
        ("ChangeEnforcer", &["1.1.1.1", "2.2.2.2"]),
        ("CheckPaint", &["3"]),
        ("Classifier", &["12/0800", "-"]),
        ("DPI", &["attack"]),
        ("EtherEncap", &["0x0800", "1:1:1:1:1:1", "2:2:2:2:2:2"]),
        ("IPClassifier", &["udp", "-"]),
        ("IPEncap", &["1.1.1.1", "2.2.2.2"]),
        ("IPFilter", &["allow udp"]),
        ("IPMulticast", &["1.1.1.1", "2.2.2.2"]),
        ("IPNAT", &["5.5.5.5"]),
        ("IPRewriter", &["pattern - - 1.2.3.4 - 0 0"]),
        ("MarkIPHeader", &["14"]),
        ("Meter", &["1000"]),
        ("Paint", &["3"]),
        ("Queue", &["16"]),
        ("RandomSwitch", &["2"]),
        ("RateLimiter", &["1000"]),
        ("RoundRobinSwitch", &["2"]),
        ("SetIPDst", &["10.0.0.1"]),
        ("SetIPSrc", &["10.0.0.1"]),
        ("SetTOS", &["4"]),
        ("StatefulFirewall", &["allow udp"]),
        ("StaticIPLookup", &["172.16.0.0/12 0"]),
        ("StockDNSServer", &["10.0.0.1"]),
        ("StockExplicitProxy", &["10.0.0.1"]),
        ("StockReverseProxy", &["10.0.0.1"]),
        ("Strip", &["14"]),
        ("Tee", &["2"]),
        ("TimedUnqueue", &["120", "100"]),
        ("TransparentProxy", &["9.9.9.9", "3128", "80"]),
        ("UDPTunnelEncap", &["1.1.1.1", "7000", "2.2.2.2", "7001"]),
    ];

    #[test]
    fn a_module_is_dedicated_exactly_when_its_class_keeps_state() {
        let registry = Registry::standard();
        let stock = [
            "StockX86VM",
            "StockExplicitProxy",
            "StockDNSServer",
            "StockReverseProxy",
            "ServerS",
        ];
        let topo = Topology::figure3();
        let platform = topo.platforms()[0];
        let mut classes = 0;
        for class in registry.classes().chain(stock) {
            let args: Vec<String> = ARGS
                .iter()
                .find(|(c, _)| *c == class)
                .map_or(&[][..], |(_, a)| *a)
                .iter()
                .map(|a| a.to_string())
                .collect();
            assert!(registry.summary(class, &args).is_ok(), "{class}{args:?}");
            let arg_refs: Vec<&str> = args.iter().map(String::as_str).collect();
            let mut m = module("m", Ipv4Addr::new(203, 0, 113, 1), "", false);
            m.config.add_element("e", class, &arg_refs);
            m.platform = platform;

            let stateful = class_info(class).unwrap().state != Shardability::Stateless;
            assert_eq!(is_stateful(&m.config), stateful, "{class}");
            let p = plan(std::slice::from_ref(&m));
            assert_eq!(p.dedicated.len(), stateful as usize, "{class}");
            assert_eq!(p.shared.len(), !stateful as usize, "{class}");
            let f = plan_fleet(std::slice::from_ref(&m), &topo);
            assert_eq!(f.dedicated.len(), stateful as usize, "{class}");
            assert_eq!(f.home.is_some(), !stateful, "{class}");
            classes += 1;
        }
        assert_eq!(classes, 47);
    }

    #[test]
    fn a_flow_meter_tenant_gets_its_own_vm() {
        // Per-flow state counts: a tenant can grow FlowMeter's table
        // without bound, so it must not share the VM.
        let topo = Topology::figure3();
        let config = "FromNetfront(0) -> FlowMeter() -> ToNetfront(0);";
        let mut m = module("meter", Ipv4Addr::new(203, 0, 113, 1), config, false);
        m.platform = topo.platforms()[0];
        assert!(is_stateful(&m.config));
        assert_eq!(plan(std::slice::from_ref(&m)).dedicated, vec!["meter"]);
        let fleet = plan_fleet(std::slice::from_ref(&m), &topo);
        assert_eq!(fleet.dedicated, vec![(m.platform, "meter".to_string())]);
        assert_eq!(fleet.home, None);
    }

    #[test]
    fn a_module_with_two_entries_gets_its_own_vm() {
        // The shared VM's demux replaces one entry per tenant; a second
        // entry would have no path in, so consolidating it panics.
        let topo = Topology::figure3();
        let two_in = "a :: FromNetfront(0); b :: FromNetfront(1); c :: Counter(); \
                      a -> c; b -> c; c -> ToNetfront(0);";
        let one_in = "FromNetfront() -> Counter() -> ToNetfront();";
        let mut mods = vec![
            module("two", Ipv4Addr::new(203, 0, 113, 1), two_in, false),
            module("one", Ipv4Addr::new(203, 0, 113, 2), one_in, false),
        ];
        for m in &mut mods {
            m.platform = topo.platforms()[0];
        }
        assert!(!is_stateful(&mods[0].config));
        let p = plan(&mods);
        assert_eq!(p.dedicated, vec!["two"]);
        assert_eq!(p.shared, vec!["one"]);
        let fleet = plan_fleet(&mods, &topo);
        assert_eq!(fleet.dedicated, vec![(mods[0].platform, "two".to_string())]);
        assert_eq!(fleet.shared, vec!["one"]);

        let shared: Vec<&InstalledModule> = mods.iter().filter(|m| m.name == "one").collect();
        consolidated_vm_config(&shared).validate().unwrap();
        let two = std::panic::catch_unwind(|| consolidated_vm_config(&[&mods[0]]));
        assert!(two.is_err(), "a second entry has no ingress path");
    }

    #[test]
    fn plan_separates_stateful_and_sandboxed() {
        let mods = vec![
            module(
                "a",
                Ipv4Addr::new(203, 0, 113, 1),
                "FromNetfront() -> IPFilter(allow udp) -> ToNetfront();",
                false,
            ),
            module(
                "b",
                Ipv4Addr::new(203, 0, 113, 2),
                "FromNetfront() -> Counter() -> ToNetfront();",
                false,
            ),
            module(
                "c",
                Ipv4Addr::new(203, 0, 113, 3),
                "FromNetfront() -> [0]n :: IPNAT(203.0.113.3); n[0] -> ToNetfront();",
                false,
            ),
            module(
                "d",
                Ipv4Addr::new(203, 0, 113, 4),
                "FromNetfront() -> Counter() -> ToNetfront();",
                true, // Sandboxed: dedicated.
            ),
        ];
        let p = plan(&mods);
        assert_eq!(p.shared, vec!["a", "b"]);
        assert_eq!(p.dedicated, vec!["c", "d"]);
    }

    #[test]
    fn plan_fleet_homes_shared_vm_on_the_busiest_platform() {
        let topo = Topology::figure3();
        let platforms = topo.platforms();
        let (p1, p2) = (platforms[0], platforms[1]);
        let stateless = "FromNetfront() -> Counter() -> ToNetfront();";
        let stateful = "FromNetfront() -> [0]n :: IPNAT(203.0.113.9); n[0] -> ToNetfront();";
        let mut mods = vec![
            module("a", Ipv4Addr::new(192, 0, 2, 10), stateless, false),
            module("b", Ipv4Addr::new(192, 0, 2, 11), stateless, false),
            module("c", Ipv4Addr::new(198, 51, 100, 10), stateless, false),
            module("d", Ipv4Addr::new(198, 51, 100, 11), stateful, false),
        ];
        mods[0].platform = p1;
        mods[1].platform = p1;
        mods[2].platform = p2;
        mods[3].platform = p2;
        let plan = plan_fleet(&mods, &topo);
        // p1 hosts two stateless tenants to p2's one: the shared VM lands
        // on p1 and only "c" has to move. The NAT stays dedicated on p2.
        assert_eq!(plan.home, Some(p1));
        assert_eq!(plan.shared, vec!["a", "b", "c"]);
        assert_eq!(plan.dedicated, vec![(p2, "d".to_string())]);
        assert_eq!(plan.moves, vec![("c".to_string(), p2, p1)]);
    }

    #[test]
    fn plan_fleet_with_no_consolidable_modules_has_no_home() {
        let topo = Topology::figure3();
        let m = module(
            "n",
            Ipv4Addr::new(192, 0, 2, 10),
            "FromNetfront() -> [0]n :: IPNAT(192.0.2.10); n[0] -> ToNetfront();",
            false,
        );
        let plan = plan_fleet(&[m], &topo);
        assert_eq!(plan.home, None);
        assert!(plan.shared.is_empty());
        assert!(plan.moves.is_empty());
        assert_eq!(plan.dedicated.len(), 1);
    }

    #[test]
    fn consolidated_vm_runs_and_isolates() {
        let a = module(
            "alice",
            Ipv4Addr::new(203, 0, 113, 1),
            "FromNetfront() -> IPFilter(allow udp dst port 1500) -> ToNetfront();",
            false,
        );
        let b = module(
            "bob",
            Ipv4Addr::new(203, 0, 113, 2),
            "FromNetfront() -> IPFilter(allow tcp dst port 80) -> ToNetfront();",
            false,
        );
        let cfg = consolidated_vm_config(&[&a, &b]);
        cfg.validate().unwrap();
        let mut r = Router::from_config(&cfg, &Registry::standard()).unwrap();

        // Alice's UDP passes; Bob's filter never sees it.
        let alice_udp = PacketBuilder::udp()
            .dst(Ipv4Addr::new(203, 0, 113, 1), 1500)
            .build();
        r.deliver(0, alice_udp, 0).unwrap();
        assert_eq!(r.take_tx().len(), 1);

        // Bob's HTTP passes too.
        let bob_http = PacketBuilder::tcp()
            .dst(Ipv4Addr::new(203, 0, 113, 2), 80)
            .build();
        r.deliver(0, bob_http, 1).unwrap();
        assert_eq!(r.take_tx().len(), 1);

        // Traffic to Alice's address but violating her filter is dropped —
        // and is never misdelivered to Bob.
        let alice_tcp = PacketBuilder::tcp()
            .dst(Ipv4Addr::new(203, 0, 113, 1), 80)
            .build();
        r.deliver(0, alice_tcp, 2).unwrap();
        assert!(r.take_tx().is_empty());
        use innet_click::elements::IPFilter;
        let bob_filter_traffic = {
            let f = r
                .element_as::<IPFilter>("bob/IPFilter@2")
                .or_else(|| r.element_as::<IPFilter>("bob/IPFilter@1"));
            f.map(|f| f.passed() + f.dropped())
        };
        if let Some(n) = bob_filter_traffic {
            assert_eq!(n, 1, "Bob's filter saw only Bob's packet");
        }
    }
}
