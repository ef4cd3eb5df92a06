//! A consolidated VM keeps its tenants apart: checked with the symbolic
//! engine, not assumed.
//!
//! `consolidated_vm_config` merges the stateless tenants `plan` shares
//! into one configuration behind an `IPClassifier` demux keyed on their
//! addresses. For seeded, generated sets of 2–8 single-ingress tenants
//! this suite injects, for each tenant, a symbolic packet addressed to it
//! into the VM's ingress. The packet may visit only the VM's boundary, the
//! demux and that tenant's namespaced nodes, and every flow that leaves
//! must be one the tenant's standalone `check_module` run emits: the same
//! nodes by name and the same field values, once that run's ingress
//! destination is bound to the tenant's address.

use innet::click::{class_info, ClickConfig, Registry};
use innet::controller::{consolidated_vm_config, plan, InstalledModule};
use innet::prelude::*;
use innet::symnet::{
    build_sym_graph, check_module, ExecOptions, Field, Observe, RangeSet, SecurityContext,
    SymGraph, ALL_FIELDS,
};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::net::Ipv4Addr;

/// Stateless one-in one-out elements whose behaviour does not depend on
/// the destination address the demux keys on.
const POOL: &[&str] = &[
    "Counter()",
    "CheckIPHeader()",
    "DecIPTTL()",
    "SetTOS(4)",
    "Paint(3)",
    "IPFilter(allow udp)",
    "IPFilter(allow tcp dst port 80)",
    "IPFilter(allow udp dst port 1500, allow icmp)",
    "SetIPSrc($SELF)",
    "SetIPDst(172.16.15.133)",
    "ICMPPingResponder()",
    "UDPTunnelEncap($SELF, 7000, 172.16.15.133, 7001)",
    "UDPTunnelDecap()",
    "IPEncap($SELF, 172.16.15.133)",
    "IPDecap()",
];

/// A single-ingress tenant: a chain of one to four pool elements, ending
/// either in the exit or in a classifier that sends UDP out and drops
/// the rest.
fn tenant(rng: &mut StdRng, addr: Ipv4Addr) -> ClickConfig {
    let mut text = "FromNetfront(0)".to_string();
    for _ in 0..rng.gen_range(1..=4) {
        text += " -> ";
        text += POOL[rng.gen_range(0..POOL.len())];
    }
    if rng.gen_bool(0.3) {
        text += " -> c :: IPClassifier(udp, -); c[0] -> ToNetfront(0); c[1] -> Discard();";
    } else {
        text += " -> ToNetfront(0);";
    }
    ClickConfig::parse(&text.replace("$SELF", &addr.to_string())).unwrap()
}

/// What a flow is, up to variable numbering: the names of the nodes it
/// visited inside the tenant, and each field's written flag and possible
/// values.
type FlowShape = (Vec<String>, Vec<(bool, RangeSet)>);

fn shape(flow: &SymPacket, names: Vec<String>) -> FlowShape {
    let fields = ALL_FIELDS
        .iter()
        .map(|&f| (flow.ever_written(f), flow.possible(f)))
        .collect();
    (names, fields)
}

fn sorted(mut shapes: Vec<FlowShape>) -> Vec<FlowShape> {
    shapes.sort_by_key(|s| format!("{s:?}"));
    shapes
}

fn dst(addr: Ipv4Addr) -> u64 {
    u32::from(addr) as u64
}

/// The tenant's flows, run alone from an unconstrained packet by
/// `check_module`, with the ingress destination bound to its address.
fn standalone(m: &InstalledModule, registry: &Registry) -> Vec<FlowShape> {
    let ctx = SecurityContext {
        assigned_addr: m.addr,
        registered: vec![Ipv4Addr::new(172, 16, 15, 133)],
        class: RequesterClass::ThirdParty,
    };
    let report = check_module(&m.config, &ctx, registry).unwrap();
    // check_module numbers the nodes in declaration order, as this does.
    let graph = build_sym_graph(&m.config, registry).unwrap();
    let boundary: Vec<&str> = m
        .config
        .elements
        .iter()
        .filter(|e| class_info(&e.class).is_some_and(|c| c.netfront.is_some()))
        .map(|e| e.name.as_str())
        .collect();
    let mut shapes = Vec::new();
    for mut flow in report.egress_flows {
        let ingress_dst = flow.ingress.get(Field::IpDst);
        if !flow.constrain_value(ingress_dst, &RangeSet::single(dst(m.addr))) {
            continue;
        }
        let names = flow
            .hops()
            .iter()
            .map(|h| graph.node_name(h.node))
            .filter(|n| !boundary.contains(n))
            .map(str::to_string)
            .collect();
        shapes.push(shape(&flow, names));
    }
    sorted(shapes)
}

/// The flows leaving the consolidated VM for a packet addressed to `m`,
/// after checking every node the packet reached.
fn consolidated(vm: &SymGraph, m: &InstalledModule) -> Vec<FlowShape> {
    let opts = ExecOptions {
        max_hops: 50_000,
        max_node_visits: 6,
        observe: Observe::All,
    };
    let mut pkt = SymPacket::unconstrained();
    assert!(pkt.constrain_eq(Field::IpDst, dst(m.addr)));
    let res = vm.run(vm.node_index("vm_in").unwrap(), 0, pkt, &opts);
    assert!(!res.truncated, "{}", m.name);
    let prefix = format!("{}/", m.name);
    let own = |n: &str| n.starts_with(&prefix) || ["vm_in", "demux", "vm_out"].contains(&n);
    for (node, _) in &res.observations {
        let name = vm.node_name(*node);
        assert!(own(name), "{}'s packet reached {name}", m.name);
    }
    let shapes = res
        .egress
        .iter()
        .map(|(iface, flow)| {
            assert_eq!(*iface, 0);
            let names = flow
                .hops()
                .iter()
                .filter_map(|h| vm.node_name(h.node).strip_prefix(&prefix))
                .map(str::to_string)
                .collect();
            shape(flow, names)
        })
        .collect();
    sorted(shapes)
}

#[test]
fn consolidated_tenants_are_isolated() {
    let registry = Registry::standard();
    let mut flows = 0;
    for seed in 0..24u64 {
        println!("seed {seed}");
        let mut rng = StdRng::seed_from_u64(seed);
        let modules: Vec<InstalledModule> = (0..rng.gen_range(2..=8))
            .map(|i| {
                let addr = Ipv4Addr::new(203, 0, 113, i as u8 + 1);
                InstalledModule {
                    id: i,
                    name: format!("t{i}"),
                    platform: 0,
                    addr,
                    config: tenant(&mut rng, addr),
                    sandboxed: false,
                    owner: format!("o{i}"),
                }
            })
            .collect();
        let shared = plan(&modules).shared;
        assert_eq!(
            shared.len(),
            modules.len(),
            "seed {seed}: every tenant shares"
        );

        let refs: Vec<&InstalledModule> = modules.iter().collect();
        let vm = build_sym_graph(&consolidated_vm_config(&refs), &registry).unwrap();
        for m in &modules {
            let got = consolidated(&vm, m);
            flows += got.len();
            assert_eq!(
                got,
                standalone(m, &registry),
                "seed {seed}, tenant {}:\n{}",
                m.name,
                m.config.to_text()
            );
        }
    }
    assert!(flows > 50, "only {flows} flows left the generated VMs");
}
