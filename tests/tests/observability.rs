//! Regression tests for the observability layer and the silent-loss
//! fixes that came with it:
//!
//! * packets arriving in a VM's suspend window are buffered and
//!   delivered after an automatic resume (they used to vanish);
//! * tenants are billed only for delivered/buffered packets;
//! * flow churn does not grow the switch controller's bookkeeping maps
//!   without bound;
//! * `deploy_batch` folds *all* shard statistics, so batch and serial
//!   deployments report identical counts;
//! * every drop increments a reason-labeled counter, making
//!   `packets == delivered + buffered + Σ drops_by_reason` a checkable
//!   invariant;
//! * histogram quantiles are monotone and sums are exact.

use std::net::Ipv4Addr;

use innet::obs;
use innet::platform::{ClientEntry, Host, SwitchController, VmState};
use innet::prelude::*;
use proptest::prelude::*;

const CLIENT: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 10);
const STRANGER: Ipv4Addr = Ipv4Addr::new(9, 9, 9, 9);

fn client_entry(stateful: bool) -> ClientEntry {
    ClientEntry {
        addr: CLIENT,
        config: ClickConfig::parse(
            "FromNetfront() -> IPFilter(allow udp, allow icmp, allow tcp) -> ToNetfront();",
        )
        .unwrap(),
        stateful,
    }
}

fn udp_to(addr: Ipv4Addr) -> Packet {
    PacketBuilder::udp()
        .src(Ipv4Addr::new(8, 8, 8, 8), 99)
        .dst(addr, 1500)
        .build()
}

const SEC: u64 = 1_000_000_000;

/// The suspend-window regression: a packet that arrives while the VM is
/// `Suspending` must be buffered and delivered after the automatic
/// resume, not silently dropped.
#[test]
fn suspend_window_packet_survives() {
    let reg = obs::Registry::new();
    let mut host = Host::with_obs(16 * 1024, &reg);
    let mut sw = SwitchController::new();
    sw.attach_metrics(&reg);
    sw.register(client_entry(true));

    // Boot, flush, and reach steady state.
    sw.on_packet(&mut host, udp_to(CLIENT), 0).unwrap();
    host.advance(SEC);
    sw.on_packet(&mut host, udp_to(CLIENT), SEC).unwrap();
    let vm = sw.binding(CLIENT).unwrap();

    // Idle reclamation of a stateful tenant starts a suspend.
    sw.reclaim_idle(&mut host, 3 * SEC, SEC);
    assert!(matches!(
        host.vm(vm).unwrap().state,
        VmState::Suspending { .. }
    ));

    // A packet lands inside the suspend window (suspend takes ~30 ms).
    let out = sw
        .on_packet(&mut host, udp_to(CLIENT), 3 * SEC + 1_000_000)
        .unwrap();
    assert!(out.is_empty(), "buffered, not processed synchronously");

    // Far enough in the future the suspend completed, the auto-resume
    // completed, and the buffer flushed — all inside one advance().
    let flushed = host.advance(5 * SEC);
    assert_eq!(flushed.len(), 1, "the suspend-window packet came out");
    assert!(matches!(host.vm(vm).unwrap().state, VmState::Running));

    // Nothing was dropped anywhere, and the scheduled resume was
    // counted and billed.
    let s = sw.stats();
    assert_eq!(s.dropped, 0);
    assert_eq!(s.packets, s.delivered + s.buffered);
    assert_eq!(s.resumes, 1);
    assert_eq!(sw.usage(CLIENT).resumes, 1);
    assert_eq!(
        reg.labeled_counter("innet_switch_drops_total", "reason")
            .total(),
        0
    );
    assert_eq!(
        reg.labeled_counter("innet_host_drops_total", "reason")
            .total(),
        0
    );
}

/// Billing counts only delivered/buffered packets: traffic the switch
/// drops (unknown destination, reclaimed mid-flow VM) charges no one.
#[test]
fn billing_matches_deliveries_under_churn() {
    let mut host = Host::new(16 * 1024);
    let mut sw = SwitchController::new();
    sw.register(client_entry(false));

    let mut now = 0;
    for round in 0..50u64 {
        now = round * SEC;
        // Mid-flow TCP first: with no binding yet (round 0, and rounds
        // right after reclamation) this is a `mid_flow_no_vm` drop;
        // with a binding it reaches the VM and is billed.
        let ack = PacketBuilder::tcp()
            .dst(CLIENT, 80)
            .flags(innet::packet::TcpFlags::ACK)
            .build();
        sw.on_packet(&mut host, ack, now).unwrap();
        // Legitimate flow traffic (re-boots the VM if reclaimed).
        sw.on_packet(&mut host, udp_to(CLIENT), now).unwrap();
        // Noise that must not be billed: unknown destination.
        sw.on_packet(&mut host, udp_to(STRANGER), now).unwrap();
        host.advance(now + SEC / 2);
        if round % 5 == 4 {
            sw.reclaim_idle(&mut host, now + SEC / 2, 1);
        }
    }
    host.advance(now + 2 * SEC);

    let s = sw.stats();
    assert_eq!(
        s.packets,
        s.delivered + s.buffered + s.dropped,
        "no packet unaccounted: {s:?}"
    );
    // Every delivered/buffered packet belonged to CLIENT, and only
    // those were billed.
    assert_eq!(sw.usage(CLIENT).packets, s.delivered + s.buffered);
    assert_eq!(sw.usage(STRANGER).packets, 0, "strangers are never billed");
    assert!(s.dropped >= 50, "the noise traffic was dropped: {s:?}");
}

/// Ten thousand reclaimed flows must not grow the controller's
/// bookkeeping maps: bindings and activity timestamps are pruned when
/// their VM is destroyed.
#[test]
fn reclaimed_flows_do_not_leak_bookkeeping() {
    let mut host = Host::new(1024 * 1024);
    let mut sw = SwitchController::new();
    sw.register(client_entry(false));

    for i in 0..10_000u64 {
        let now = i * SEC;
        sw.on_packet(&mut host, udp_to(CLIENT), now).unwrap();
        host.advance(now + SEC / 2);
        sw.reclaim_idle(&mut host, now + SEC / 2, 1);
    }

    assert_eq!(host.live_vms(), 0, "every flow's VM was reclaimed");
    assert_eq!(sw.tracked_bindings(), 0, "bindings pruned with their VMs");
    assert_eq!(sw.tracked_vms(), 0, "last_active pruned with their VMs");
    // The advance() sweep over live VMs stays cheap even though 10k VM
    // slots were ever created: it only visits live slots, so this
    // completes instantly rather than scanning 10k dead slots per call.
    host.advance(20_000 * SEC);
}

/// `deploy_batch` must report the same statistics as deploying the same
/// requests serially — the original fold dropped everything except
/// three cache counters. And the metric mirror must agree with the
/// statistics it mirrors: after a mixed batch + serial run, every
/// `innet_ctl_*_total` counter equals the `ControllerStats` field it is
/// tabled against.
#[test]
fn batch_and_serial_statistics_agree() {
    const FIG4: &str = r#"
        module batcher:
        FromNetfront()
          -> IPFilter(allow udp dst port 1500)
          -> IPRewriter(pattern - - 172.16.15.133 - 0 0)
          -> TimedUnqueue(120, 100)
          -> dst :: ToNetfront();

        reach from internet udp
          -> batcher:dst:0 dst 172.16.15.133
          -> client dst port 1500
          const proto && dst port && payload
    "#;
    let controller = || {
        let mut c = Controller::new(Topology::figure3());
        for i in 0..6 {
            c.register_client(
                format!("client{i}"),
                RequesterClass::Client,
                vec!["172.16.15.133".parse().unwrap()],
            );
        }
        c
    };
    let request = |i: usize| {
        let mut r = ClientRequest::parse(FIG4).unwrap();
        r.module_name = format!("batcher{i}");
        let req = format!(
            "reach from internet udp -> batcher{i}:dst:0 dst 172.16.15.133 \
             -> client dst port 1500 const proto && dst port && payload"
        );
        r.requirements = vec![Requirement::parse(&req).unwrap()];
        r
    };

    let batch: Vec<(String, ClientRequest)> =
        (0..6).map(|i| (format!("client{i}"), request(i))).collect();

    let mut serial = controller();
    for (client, req) in batch.clone() {
        serial.deploy(&client, req).expect("deployable");
    }
    let reg = obs::Registry::new();
    let mut parallel = controller();
    parallel.attach_metrics(&reg);
    let results = parallel.deploy_batch(batch, 3);
    assert!(results.iter().all(|r| r.is_ok()));

    let (s, p) = (serial.stats(), parallel.stats());
    assert_eq!(s.requests, p.requests, "requests: {s:?} vs {p:?}");
    assert_eq!(s.accepted, p.accepted, "accepted: {s:?} vs {p:?}");
    assert_eq!(s.rejected, p.rejected, "rejected: {s:?} vs {p:?}");
    assert_eq!(s.cache_misses, p.cache_misses, "misses: {s:?} vs {p:?}");
    assert_eq!(s.cache_hits, p.cache_hits, "hits: {s:?} vs {p:?}");
    assert_eq!(
        s.cache_invalidations, p.cache_invalidations,
        "invalidations: {s:?} vs {p:?}"
    );
    // Timing totals are wall-clock and cannot be compared exactly, but
    // a batch that did the same verification work must have spent time.
    assert!(p.compile_ns > 0 && p.check_ns > 0, "timing folded: {p:?}");

    // A serial tail over the other ledger paths: a verdict-cache hit, a
    // security reject, an unknown client, and a kill (invalidation).
    parallel.deploy("client0", request(0)).expect("replayed");
    let spoof = "module evil:\nFromNetfront() -> SetIPSrc(8.8.8.8) -> ToNetfront();";
    let spoof = ClientRequest::parse(spoof).unwrap();
    assert!(parallel.deploy("client1", spoof).is_err());
    assert!(parallel.deploy("stranger", request(6)).is_err());
    let victim = parallel.modules()[0].id;
    parallel.kill(victim).unwrap();

    let p = parallel.stats();
    assert!(p.cache_hits > 0 && p.rejected > 0 && p.cache_invalidations > 0);
    assert_eq!(p.requests, p.accepted + p.rejected + 1, "{p:?}");
    let mirrored: Vec<&str> = p.counters().map(|(name, _)| name).collect();
    assert_eq!(
        mirrored,
        [
            "innet_ctl_requests_total",
            "innet_ctl_accepted_total",
            "innet_ctl_rejected_total",
            "innet_ctl_cache_hits_total",
            "innet_ctl_cache_misses_total",
            "innet_ctl_cache_invalidations_total",
            "innet_ctl_check_ns_saved_total",
            "innet_ctl_compile_ns_total",
            "innet_ctl_check_ns_total",
            "innet_ctl_lint_rejects_total",
            "innet_ctl_lint_cache_hits_total",
            "innet_ctl_analysis_ns_total",
            "innet_ctl_summary_cache_hits_total",
            "innet_ctl_summary_cache_misses_total",
            "innet_ctl_summary_chain_nodes_total",
            "innet_ctl_summary_invalidations_total",
        ]
    );
    for (name, value) in p.counters() {
        assert_eq!(reg.counter(name).get(), value, "{name} drifted: {p:?}");
    }
}

/// The zero-silent-drops invariant, checked against the live registry
/// under a churny mixed workload:
/// `packets_in == delivered + buffered + Σ drops_by_reason`.
#[test]
fn churn_workload_accounts_for_every_packet() {
    let reg = obs::Registry::new();
    let mut host = Host::with_obs(16 * 1024, &reg);
    let mut sw = SwitchController::new();
    sw.attach_metrics(&reg);
    sw.register(client_entry(true));

    let mut now = 0;
    for round in 0..200u64 {
        now = round * SEC / 4;
        match round % 4 {
            // Normal traffic (boots on round 0, then delivered or
            // buffered depending on lifecycle phase).
            0 | 1 => {
                sw.on_packet(&mut host, udp_to(CLIENT), now).unwrap();
            }
            // Unknown destinations.
            2 => {
                sw.on_packet(&mut host, udp_to(STRANGER), now).unwrap();
            }
            // Reclaim pressure, then traffic into the suspend window.
            _ => {
                sw.reclaim_idle(&mut host, now, 1);
                sw.on_packet(&mut host, udp_to(CLIENT), now).unwrap();
            }
        }
        if round % 7 == 0 {
            host.advance(now);
        }
    }
    host.advance(now + 10 * SEC);

    let s = sw.stats();
    assert_eq!(
        s.packets,
        s.delivered + s.buffered + s.dropped,
        "unaccounted packets: {s:?}"
    );

    // The registry mirrors the struct exactly…
    assert_eq!(reg.counter("innet_switch_packets_total").get(), s.packets);
    assert_eq!(
        reg.counter("innet_switch_delivered_total").get(),
        s.delivered
    );
    assert_eq!(reg.counter("innet_switch_buffered_total").get(), s.buffered);
    assert_eq!(reg.counter("innet_switch_boots_total").get(), s.boots);
    assert_eq!(reg.counter("innet_switch_resumes_total").get(), s.resumes);

    // …and every drop carries a reason label that sums back up.
    let drops = reg.labeled_counter("innet_switch_drops_total", "reason");
    assert_eq!(drops.total(), s.dropped);
    assert_eq!(drops.get("unknown_dst"), 50, "one stranger per 4 rounds");
    let cells: u64 = drops.cells().iter().map(|(_, v)| v).sum();
    assert_eq!(cells, s.dropped);

    // The boot/suspend/resume latency histograms saw the lifecycle
    // events the gauges and counters claim happened.
    let snap = reg.snapshot();
    let boot = snap
        .histograms
        .iter()
        .find(|(n, _)| n == "innet_host_boot_latency_ns")
        .expect("boot histogram registered");
    assert_eq!(boot.1.snapshot.count, s.boots);
    assert!(boot.1.snapshot.p50 >= 1_000_000, "boots take milliseconds");

    // Exports render without panicking and mention the namespace roots.
    let prom = snap.to_prometheus();
    assert!(prom.contains("innet_switch_packets_total"));
    assert!(prom.contains("innet_host_mem_used_mb"));
    let json = snap.to_json();
    assert!(json.contains("innet_switch_drops_total"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Histogram quantiles are monotone in the quantile and bracketed by
    /// the exact min/max.
    #[test]
    fn histogram_quantiles_monotone(
        values in proptest::collection::vec(0u64..1u64 << 48, 1..256),
    ) {
        let h = obs::Histogram::new();
        for &v in &values {
            h.observe(v);
        }
        let s = h.snapshot();
        let lo = *values.iter().min().unwrap();
        let hi = *values.iter().max().unwrap();
        prop_assert_eq!(s.min, lo);
        prop_assert_eq!(s.max, hi);
        prop_assert!(s.min <= s.p50, "{s:?}");
        prop_assert!(s.p50 <= s.p95, "{s:?}");
        prop_assert!(s.p95 <= s.p99, "{s:?}");
        prop_assert!(s.p99 <= s.max, "{s:?}");
    }

    /// Count and sum are exact (buckets approximate the distribution,
    /// never the totals), and the mean stays within the histogram's
    /// bounds.
    #[test]
    fn histogram_preserves_count_and_sum(
        values in proptest::collection::vec(0u64..1u64 << 48, 1..256),
    ) {
        let h = obs::Histogram::new();
        for &v in &values {
            h.observe(v);
        }
        let s = h.snapshot();
        prop_assert_eq!(s.count, values.len() as u64);
        let exact: u128 = values.iter().map(|&v| v as u128).sum();
        prop_assert_eq!(s.sum, exact);
        let mean = s.mean();
        prop_assert!(mean >= s.min as f64 && mean <= s.max as f64, "{s:?}");
    }
}
