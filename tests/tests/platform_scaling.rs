//! Integration tests across the platform-scaling mechanisms (§5):
//! on-the-fly boot, suspend/resume, consolidation — and their isolation
//! guarantees.

use innet::click::elements::IPFilter;
use innet::platform::{consolidated_config, ClientEntry, Host, RunnerConfig, SwitchController};
use innet::prelude::*;
use std::net::Ipv4Addr;

fn addr(i: u8) -> Ipv4Addr {
    Ipv4Addr::new(203, 0, 113, i)
}

/// The full on-the-fly life cycle: boot on first packet, steady-state
/// processing, idle reclamation, re-boot on return.
#[test]
fn on_the_fly_lifecycle() {
    let mut host = Host::new(16 * 1024);
    let mut sw = SwitchController::new();
    sw.register(ClientEntry {
        addr: addr(10),
        config: ClickConfig::parse("FromNetfront() -> IPFilter(allow udp) -> ToNetfront();")
            .unwrap(),
        stateful: false,
    });

    let pkt = |t: u16| {
        PacketBuilder::udp()
            .src(Ipv4Addr::new(8, 8, 8, 8), 1000 + t)
            .dst(addr(10), 1500)
            .build()
    };

    // Boot, buffer, flush.
    assert!(sw.on_packet(&mut host, pkt(0), 0).unwrap().is_empty());
    assert_eq!(host.advance(200_000_000).len(), 1);
    // Steady state.
    for i in 1..50u16 {
        let out = sw
            .on_packet(&mut host, pkt(i), 200_000_000 + i as u64 * 1_000_000)
            .unwrap();
        assert_eq!(out.len(), 1);
    }
    assert_eq!(sw.stats().boots, 1);
    // Idle reclamation destroys the stateless VM.
    sw.reclaim_idle(&mut host, 60_000_000_000, 1_000_000_000);
    assert_eq!(host.live_vms(), 0);
    // The next packet re-boots.
    sw.on_packet(&mut host, pkt(99), 61_000_000_000).unwrap();
    assert_eq!(sw.stats().boots, 2);
}

/// Stateful modules keep their state across suspend/resume: a firewall's
/// conntrack entry survives, so a reply arriving after resumption still
/// passes.
#[test]
fn conntrack_survives_suspend_resume() {
    let mut host = Host::new(16 * 1024);
    let cfg = ClickConfig::parse(
        r#"
        inside :: FromNetfront(0);
        outside :: FromNetfront(1);
        fw :: StatefulFirewall(allow udp, timeout 3600);
        to_out :: ToNetfront(1);
        to_in :: ToNetfront(0);
        inside -> [0]fw; fw[0] -> to_out;
        outside -> [1]fw; fw[1] -> to_in;
        "#,
    )
    .unwrap();
    let vm = host.boot_clickos(&cfg, 0).unwrap();
    host.advance(100_000_000);

    // Outbound request authorizes the flow.
    let out_pkt = PacketBuilder::udp()
        .src(Ipv4Addr::new(10, 0, 0, 5), 4000)
        .dst(Ipv4Addr::new(8, 8, 8, 8), 53)
        .build();
    let tx = host.deliver(vm, 0, out_pkt, 200_000_000).unwrap();
    assert_eq!(tx.len(), 1);

    // Suspend, then resume much later.
    let done = host.suspend(vm, 1_000_000_000).unwrap();
    host.advance(done);
    let ready = host.resume(vm, 100_000_000_000).unwrap();
    host.advance(ready);

    // The reply still passes: state survived.
    let reply = PacketBuilder::udp()
        .src(Ipv4Addr::new(8, 8, 8, 8), 53)
        .dst(Ipv4Addr::new(10, 0, 0, 5), 4000)
        .build();
    let tx = host.deliver(vm, 1, reply, ready + 1).unwrap();
    assert_eq!(tx.len(), 1, "conntrack entry survived suspension");
}

/// Consolidation isolation: tenants in one VM cannot see or influence
/// each other's traffic — packets only ever leave through the right
/// tenant's filter.
#[test]
fn consolidation_isolates_tenants() {
    let tenants: Vec<Ipv4Addr> = (1..=20).map(addr).collect();
    let cfg = consolidated_config(&tenants);
    let mut runner = RunnerConfig::new().parallel(&cfg).unwrap();

    // Traffic addressed to tenant 7 passes exactly one filter: fw6.
    let pkt = PacketBuilder::udp().dst(tenants[6], 80).build();
    let stats = runner.run(std::slice::from_ref(&pkt), 1);
    assert_eq!(stats.transmitted, 1);
    // The runner's engine holds no element handles; an interpreted router
    // on the same config, fed the same packet, shows the filter counters.
    let mut router = Router::from_config(&cfg, &Registry::standard()).unwrap();
    router.deliver(pkt.meta.ingress, pkt, 0).unwrap();
    assert_eq!(router.take_tx().len(), 1);
    for (i, _) in tenants.iter().enumerate() {
        let fw = router
            .element_as::<IPFilter>(&format!("fw{i}"))
            .expect("filter exists");
        let expected = u64::from(i == 6);
        assert_eq!(
            fw.passed() + fw.dropped(),
            expected,
            "tenant {i} saw foreign traffic"
        );
    }
}

/// Memory capacity enforces the §6 density bounds: a 16 GB host runs
/// 1,000+ ClickOS VMs but only ~25 Linux VMs.
#[test]
fn host_density_bounds() {
    let cfg = ClickConfig::parse("FromNetfront() -> ToNetfront();").unwrap();
    let mut host = Host::new(16 * 1024);
    let mut clickos = 0;
    while host.boot_clickos(&cfg, 0).is_ok() {
        clickos += 1;
        if clickos > 2000 {
            break;
        }
    }
    assert!(
        (1000..=1400).contains(&clickos),
        "16 GB fits ~1,260 ClickOS VMs, got {clickos}"
    );

    let mut host = Host::new(16 * 1024);
    let mut linux = 0;
    while host.boot_linux(0).is_ok() {
        linux += 1;
    }
    assert!((20..=30).contains(&linux), "got {linux}");
}
