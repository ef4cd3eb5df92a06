//! Gravity-model traffic matrices over the capacitated topology.
//!
//! A [`TrafficMatrix`] is a seeded, deterministic demand set between the
//! topology's client subnets and a list of tenant addresses: each
//! (subnet, tenant) pair gets a rate proportional to the product of two
//! seeded masses (the classic gravity model), scaled so the whole
//! matrix offers `total_pps` packets per second. Demands are paced into
//! `SimTime`-stamped packet schedules that enter the fleet at each
//! subnet's nearest platform — so cross-PoP demand crosses the fabric
//! and stresses per-link `bandwidth_bps`, not just latency.
//!
//! Flash crowds are multiplicative: scaling a PoP multiplies the rate
//! of every demand originating there. [`TrafficMatrix::demand_by_tenant`]
//! exports the per-tenant offered load that the fleet's rebalancer
//! ([`crate::FleetDriver::rebalance_every`]) consumes instead of raw VM
//! counts.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use innet_packet::{Packet, PacketBuilder};
use innet_sim::des::{SimTime, SECOND};
use innet_topology::{NodeId, Topology};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Knobs for [`TrafficMatrix::gravity`].
#[derive(Debug, Clone, Copy)]
pub struct TrafficParams {
    /// Seed for masses, source addresses, ports, and pacing phases.
    pub seed: u64,
    /// Aggregate offered load across all demands, packets per second.
    pub total_pps: u64,
    /// On-the-wire frame length of every generated packet.
    pub frame_len: usize,
    /// UDP destination port (tenant service port).
    pub dst_port: u16,
}

impl Default for TrafficParams {
    fn default() -> Self {
        TrafficParams {
            seed: 0,
            total_pps: 1_000,
            frame_len: 512,
            dst_port: 1500,
        }
    }
}

/// One (client subnet, tenant) demand of the matrix.
#[derive(Debug, Clone, Copy)]
pub struct Demand {
    /// Originating client-subnet node.
    pub subnet: NodeId,
    /// The platform this demand enters the fleet at (nearest to the
    /// subnet by path latency; re-pointed when that platform dies).
    pub ingress: NodeId,
    /// Destination tenant address.
    pub tenant: Ipv4Addr,
    /// Source address, drawn from the subnet's CIDR.
    pub src: Ipv4Addr,
    /// Source port of the flow.
    pub src_port: u16,
    /// Base rate in milli-packets-per-second (at multiplier 1).
    pub milli_pps: u64,
}

/// A seeded gravity-model demand matrix, paced into packet schedules.
pub struct TrafficMatrix {
    demands: Vec<Demand>,
    /// Per-demand inter-packet gap at multiplier 1.
    interval_ns: Vec<SimTime>,
    /// Per-demand flash-crowd multiplier (1 = baseline).
    multiplier: Vec<u32>,
    /// Per-demand next emission time (pacing state).
    next_at: Vec<SimTime>,
    frame_len: usize,
    dst_port: u16,
}

impl TrafficMatrix {
    /// Builds the matrix: seeded masses per client subnet and per
    /// tenant, demand `(i, j)` proportional to `mass_i * mass_j`, the
    /// whole matrix scaled to `p.total_pps`. Zero-rate pairs (after
    /// integer scaling) are dropped. Deterministic for a given
    /// `(topology, tenants, params)` triple.
    pub fn gravity(topo: &Topology, tenants: &[Ipv4Addr], p: &TrafficParams) -> TrafficMatrix {
        let mut rng = StdRng::seed_from_u64(p.seed);
        let subnets = topo.client_subnets();
        let platforms = topo.platforms();
        let subnet_mass: Vec<u64> = subnets.iter().map(|_| rng.gen_range(1..=8u64)).collect();
        let tenant_mass: Vec<u64> = tenants.iter().map(|_| rng.gen_range(1..=8u64)).collect();
        let total_weight: u64 = subnet_mass
            .iter()
            .map(|m| m * tenant_mass.iter().sum::<u64>())
            .sum();

        let adjacency = topo.adjacency();
        let mut demands = Vec::new();
        let mut interval_ns = Vec::new();
        let mut next_at = Vec::new();
        for (i, &(subnet, cidr)) in subnets.iter().enumerate() {
            let sm = subnet_mass[i];
            let paths = adjacency.paths_from(subnet);
            // Nearest platform by path latency, ties to the lower id.
            let ingress = platforms
                .iter()
                .filter_map(|&pl| paths.get(pl).copied().flatten().map(|a| (a.latency_ns, pl)))
                .min()
                .map(|(_, pl)| pl);
            let Some(ingress) = ingress else { continue };
            for (&tenant, &tm) in tenants.iter().zip(&tenant_mass) {
                let milli_pps = (p.total_pps as u128 * 1000 * (sm * tm) as u128
                    / total_weight.max(1) as u128) as u64;
                let src = cidr.nth_host(rng.gen_range(1..=250));
                let src_port = rng.gen_range(1024..60_000);
                if milli_pps == 0 {
                    continue;
                }
                let gap = (SECOND as u128 * 1000 / milli_pps as u128).min(u64::MAX as u128) as u64;
                // A seeded phase spreads flows within their first gap so
                // the matrix does not fire in lockstep.
                let phase = rng.gen_range(0..gap.max(1));
                demands.push(Demand {
                    subnet,
                    ingress,
                    tenant,
                    src,
                    src_port,
                    milli_pps,
                });
                interval_ns.push(gap);
                next_at.push(phase);
            }
        }
        let n = demands.len();
        TrafficMatrix {
            demands,
            interval_ns,
            multiplier: vec![1; n],
            next_at,
            frame_len: p.frame_len,
            dst_port: p.dst_port,
        }
    }

    /// The matrix's demands.
    pub fn demands(&self) -> &[Demand] {
        &self.demands
    }

    /// Sets the flash-crowd multiplier for every demand originating in
    /// PoP `pop` (by the `"pop{N}-"` naming of `generate_fleet`).
    /// Returns the number of demands affected.
    pub fn scale_pop(&mut self, topo: &Topology, pop: usize, multiplier: u32) -> usize {
        let mut n = 0;
        for (i, d) in self.demands.iter().enumerate() {
            if topo.pop_of(d.subnet) == Some(pop) {
                self.multiplier[i] = multiplier.max(1);
                n += 1;
            }
        }
        n
    }

    /// Re-points every demand whose ingress platform is `dead` to the
    /// nearest platform in `alive` (by path latency from the demand's
    /// subnet, ties to the lower id). Returns the demands re-pointed.
    pub fn reingress(&mut self, topo: &Topology, dead: NodeId, alive: &[NodeId]) -> usize {
        let adjacency = topo.adjacency();
        let mut cache: HashMap<NodeId, Option<NodeId>> = HashMap::new();
        let mut n = 0;
        for d in self.demands.iter_mut() {
            if d.ingress != dead {
                continue;
            }
            let best = *cache.entry(d.subnet).or_insert_with(|| {
                let paths = adjacency.paths_from(d.subnet);
                alive
                    .iter()
                    .filter(|&&pl| pl != dead)
                    .filter_map(|&pl| paths.get(pl).copied().flatten().map(|a| (a.latency_ns, pl)))
                    .min()
                    .map(|(_, pl)| pl)
            });
            if let Some(best) = best {
                d.ingress = best;
                n += 1;
            }
        }
        n
    }

    /// Per-tenant offered load (milli-pps, multipliers applied): the
    /// demand weights [`crate::Fleet::attach_demand`] consumes.
    pub fn demand_by_tenant(&self) -> HashMap<Ipv4Addr, u64> {
        let mut out: HashMap<Ipv4Addr, u64> = HashMap::new();
        for (d, &m) in self.demands.iter().zip(&self.multiplier) {
            *out.entry(d.tenant).or_default() += d.milli_pps * m as u64;
        }
        out
    }

    /// Paces every demand up to (but excluding) `until`, advancing the
    /// pacing state: the next call resumes where this one stopped.
    /// Returns `(time, ingress, packet)` ascending by time, with ties in
    /// demand order — fully deterministic.
    pub fn pace(&mut self, until: SimTime) -> Vec<(SimTime, NodeId, Packet)> {
        let mut out: Vec<(SimTime, usize)> = Vec::new();
        for i in 0..self.demands.len() {
            let gap = (self.interval_ns[i] / self.multiplier[i] as u64).max(1);
            while self.next_at[i] < until {
                out.push((self.next_at[i], i));
                self.next_at[i] += gap;
            }
        }
        out.sort_unstable();
        out.into_iter()
            .map(|(at, i)| {
                let d = &self.demands[i];
                let pkt = PacketBuilder::udp()
                    .src(d.src, d.src_port)
                    .dst(d.tenant, self.dst_port)
                    .pad_to(self.frame_len)
                    .build();
                (at, d.ingress, pkt)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use innet_topology::{generate_fleet, FleetParams};

    fn small_topo() -> Topology {
        generate_fleet(&FleetParams {
            pops: 3,
            platforms_per_pop: 1,
            clients_per_pop: 2,
            seed: 7,
        })
    }

    fn tenants() -> Vec<Ipv4Addr> {
        (0..4).map(|i| Ipv4Addr::new(198, 18, 0, 10 + i)).collect()
    }

    #[test]
    fn gravity_is_deterministic() {
        let topo = small_topo();
        let p = TrafficParams::default();
        let mut a = TrafficMatrix::gravity(&topo, &tenants(), &p);
        let mut b = TrafficMatrix::gravity(&topo, &tenants(), &p);
        let sa = a.pace(100_000_000);
        let sb = b.pace(100_000_000);
        assert!(!sa.is_empty());
        assert_eq!(sa.len(), sb.len());
        for ((ta, na, pa), (tb, nb, pb)) in sa.iter().zip(&sb) {
            assert_eq!((ta, na), (tb, nb));
            assert_eq!(pa.bytes(), pb.bytes());
        }
    }

    #[test]
    fn offered_rate_matches_total_pps() {
        let topo = small_topo();
        let p = TrafficParams {
            total_pps: 2_000,
            ..TrafficParams::default()
        };
        let mut m = TrafficMatrix::gravity(&topo, &tenants(), &p);
        let offered = m.pace(SECOND).len() as i64;
        // Integer scaling truncates; stay within 10 % of the target.
        assert!(
            (offered - 2_000).abs() < 200,
            "offered {offered} per second"
        );
    }

    #[test]
    fn flash_crowd_multiplies_subnet_rate() {
        let topo = small_topo();
        let mut m = TrafficMatrix::gravity(&topo, &tenants(), &TrafficParams::default());
        let subnet = m.demands()[0].subnet;
        let base: usize = {
            let mut warm = TrafficMatrix::gravity(&topo, &tenants(), &TrafficParams::default());
            warm.pace(SECOND).len()
        };
        assert!(m.scale_pop(&topo, topo.pop_of(subnet).unwrap(), 4) > 0);
        let boosted = m.pace(SECOND).len();
        assert!(
            boosted > base + base / 10,
            "flash crowd must raise the offered load: {base} -> {boosted}"
        );
        let demand = m.demand_by_tenant();
        assert!(!demand.is_empty());
    }

    #[test]
    fn pacing_resumes_where_it_stopped() {
        let topo = small_topo();
        let p = TrafficParams::default();
        let mut whole = TrafficMatrix::gravity(&topo, &tenants(), &p);
        let mut halves = TrafficMatrix::gravity(&topo, &tenants(), &p);
        let all = whole.pace(SECOND);
        let mut stitched = halves.pace(SECOND / 2);
        stitched.extend(halves.pace(SECOND));
        assert_eq!(all.len(), stitched.len());
        for ((ta, na, _), (tb, nb, _)) in all.iter().zip(&stitched) {
            assert_eq!((ta, na), (tb, nb));
        }
    }

    #[test]
    fn reingress_moves_demands_off_a_dead_platform() {
        let topo = small_topo();
        let mut m = TrafficMatrix::gravity(&topo, &tenants(), &TrafficParams::default());
        let dead = m.demands()[0].ingress;
        let alive: Vec<NodeId> = topo
            .platforms()
            .into_iter()
            .filter(|&p| p != dead)
            .collect();
        let moved = m.reingress(&topo, dead, &alive);
        assert!(moved > 0);
        assert!(m.demands().iter().all(|d| d.ingress != dead));
    }
}
