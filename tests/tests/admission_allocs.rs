//! Work counts beside the clock: heap allocations of the admission rungs
//! that read and place a request, counted by this binary's own global
//! allocator. Counts depend on the toolchain, so none is pinned; each
//! assertion compares two counts taken on the same build:
//!
//! * parsing a request allocates as often with a long comment or a long
//!   argument as with a short one (the text is read once, in place);
//! * deploying a renamed stock chain allocates as often with full
//!   platforms ranked ahead of the one that takes it as with none (the
//!   placement walk records nothing while it passes a full platform).
//!
//! Counts are per thread, so the tests of this binary may run in
//! parallel; nothing is printed inside a counted region.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use innet::controller::{ClientRequest, Controller};
use innet::packet::Cidr;
use innet::symnet::RequesterClass;
use innet::topology::{NodeKind, PlatformSpec, Topology};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting the allocations of each thread.
struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `f`'s result and the allocations (and reallocations) it made on this
/// thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// A Figure 4 style request whose filter argument is padded to `arg`
/// extra bytes and whose line and block comments (one outside, one
/// inside an argument list) are `comment` bytes long.
fn request_text(arg: usize, comment: usize) -> String {
    let pad = "x".repeat(arg);
    let note = "c".repeat(comment);
    format!(
        "module batcher:\n\
         FromNetfront() // {note}\n\
         -> IPFilter(allow udp dst port 1500 /* {note} */, deny {pad})\n\
         -> /* {note} */ IPRewriter(pattern - - 172.16.15.133 - 0 0)\n\
         -> TimedUnqueue(120, 100) -> dst :: ToNetfront();\n"
    )
}

#[test]
fn parse_allocations_do_not_grow_with_comments_or_arguments() {
    let parse = |arg, comment| {
        let text = request_text(arg, comment);
        let (parsed, n) = counted(|| ClientRequest::parse(&text).map(drop));
        parsed.unwrap();
        n
    };
    let short = parse(4, 4);
    let long_comment = parse(4, 4_000);
    let long_argument = parse(4_000, 4);
    println!(
        "ClientRequest::parse allocations: {short} (short), {long_comment} (4 KB comments), \
         {long_argument} (4 KB argument)"
    );
    assert_eq!(long_comment, short, "allocations grow with comment length");
    assert_eq!(
        long_argument, short,
        "allocations grow with argument length"
    );
}

/// The chain every deploy below installs under a fresh module name.
const CHAIN: &str = "FromNetfront() -> CheckIPHeader() -> IPFilter(allow udp dst port 1500) \
                     -> Counter() -> IPRewriter(pattern - - 172.16.15.133 - 0 0) -> ToNetfront();";
const PLATFORMS: usize = 8;
const SLOTS: usize = 2;
/// Platforms full at each measured deploy: `k` ranked ahead of the one
/// that takes it, the rest behind it.
const FULL: usize = 5;

/// Clients behind one router, and `PLATFORMS` platforms of `SLOTS` slots
/// each. Platform `i` is `i + 1` ms from the clients, so it ranks `i`th
/// full or empty: latency outweighs occupancy in the placement score.
fn ladder() -> Topology {
    let mut t = Topology::new();
    let internet = t.add("internet", NodeKind::Internet).unwrap();
    let clients_net: Cidr = "172.16.0.0/16".parse().unwrap();
    let clients = t
        .add("clients", NodeKind::ClientSubnet(clients_net))
        .unwrap();
    let pools: Vec<Cidr> = (0..PLATFORMS)
        .map(|i| format!("10.0.{i}.0/24").parse().unwrap())
        .collect();
    let mut routes = vec![(clients_net, 1)];
    routes.extend(pools.iter().enumerate().map(|(i, pool)| (*pool, 2 + i)));
    routes.push((Cidr::ANY, 0));
    let router = t.add("router", NodeKind::Router(routes)).unwrap();
    t.link_bidir(router, 0, internet, 0);
    t.link_bidir_with(router, 1, clients, 0, 10_000_000_000, 1_000_000);
    for (i, pool) in pools.into_iter().enumerate() {
        let spec = PlatformSpec {
            addr_pool: pool,
            capacity: SLOTS,
            ..PlatformSpec::default()
        };
        let p = t.add(format!("p{i}"), NodeKind::Platform(spec)).unwrap();
        let latency_ns = (i as u64 + 1) * 1_000_000;
        t.link_bidir_with(router, 2 + i, p, 0, 10_000_000_000, latency_ns);
    }
    t
}

fn deploy(ctl: &mut Controller, name: &str) -> (u64, String) {
    let request = ClientRequest::parse(&format!("module {name}:\n{CHAIN}")).unwrap();
    let resp = ctl.deploy("tenant", request).unwrap();
    (resp.module_id, resp.platform)
}

/// Allocations of one renamed-chain deploy with `k` full platforms
/// ranked ahead of the one that takes it. Every state is reached the
/// same way, so the tables and memos a deploy writes hold the same
/// number of entries with the same capacity: every slot is filled, the
/// modules on the platforms that are to be open are killed (the last
/// kill flushes the memos), and one deploy of the chain warms them.
fn renamed_deploy_allocations(k: usize) -> u64 {
    let mut ctl = Controller::new(ladder());
    ctl.register_client(
        "tenant",
        RequesterClass::Client,
        vec!["172.16.15.133".parse().unwrap()],
    );
    let full = |p: &str| {
        let i: usize = p[1..].parse().unwrap();
        i < k || i >= PLATFORMS - (FULL - k)
    };
    let standing: Vec<(u64, String)> = (0..PLATFORMS * SLOTS)
        .map(|i| deploy(&mut ctl, &format!("standing{i}")))
        .collect();
    for (id, platform) in &standing {
        if !full(platform) {
            ctl.kill(*id).unwrap();
        }
    }
    let (_, warm) = deploy(&mut ctl, "warm");
    assert_eq!(warm, format!("p{k}"));
    let request = ClientRequest::parse(&format!("module renamed:\n{CHAIN}")).unwrap();
    let (resp, n) = counted(|| ctl.deploy("tenant", request));
    assert_eq!(resp.unwrap().platform, format!("p{k}"));
    n
}

#[test]
fn renamed_deploy_allocations_do_not_grow_with_full_platforms_ahead() {
    let counts: Vec<(usize, u64)> = [0, 2, FULL]
        .into_iter()
        .map(|k| (k, renamed_deploy_allocations(k)))
        .collect();
    for (k, n) in &counts {
        println!("renamed stock deploy, {k} full platforms ranked ahead: {n} allocations");
    }
    let (_, none_ahead) = counts[0];
    for (k, n) in &counts {
        assert_eq!(
            *n, none_ahead,
            "{k} full platforms ahead: the walk allocates per full platform"
        );
    }
}
