//! Load rebalancing: one greedy that narrows the hot–cold spread by live
//! migration, weighted by offered demand when a traffic matrix is
//! attached and by live VMs otherwise.

use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;

use innet_sim::des::SimTime;
use innet_topology::NodeId;

use super::Fleet;
use crate::vm::VmState;

impl Fleet {
    /// Live VMs per platform, ascending by platform id.
    pub fn load(&self) -> Vec<(NodeId, usize)> {
        self.sites
            .iter()
            .map(|(&id, s)| (id, s.host.live_vms()))
            .collect()
    }

    /// Unit weights, for rebalancing without a traffic matrix: 1 per
    /// tenant whose bound VM is live or on the wire in a migration, so a
    /// platform's load is the number of live VMs its tenants hold.
    fn unit_weights(&self) -> HashMap<Ipv4Addr, u64> {
        self.locations
            .iter()
            .filter(|&(&addr, home)| {
                self.migrating.contains_key(&addr)
                    || self.sites.get(home).is_some_and(|site| {
                        site.switch
                            .binding(addr)
                            .and_then(|vm| site.host.vm(vm).ok())
                            .is_some_and(|v| !matches!(v.state, VmState::Destroyed))
                    })
            })
            .map(|(&addr, _)| (addr, 1))
            .collect()
    }

    /// Rebalances the fleet and returns the moves started as
    /// `(addr, from, to)`.
    ///
    /// A tenant weighs its offered demand when a traffic matrix is
    /// attached ([`Fleet::attach_demand`]), else 1 if it holds a live VM;
    /// a platform's load is the sum over the tenants homed there, with a
    /// tenant mid-migration already counted at its destination — a tick
    /// inside a downtime window sees the fleet its moves are making. While
    /// the spread between the hottest and coldest alive platforms is at
    /// least `threshold` average tenant weights — so `rebalance(now, 2)`
    /// means "act when the spread reaches two average tenants' worth of
    /// load" — the heaviest movable tenant on the hottest platform
    /// migrates to the coldest. A move must strictly narrow the spread
    /// (`0 < w < spread`): a 3–2 split of equal tenants is left alone
    /// rather than flipped to 2–3 at the cost of a downtime window.
    ///
    /// Fully deterministic: hottest/coldest break ties on the lower
    /// platform id; tenant ties break on address order.
    pub(crate) fn rebalance(
        &mut self,
        now: SimTime,
        threshold: usize,
    ) -> Vec<(Ipv4Addr, NodeId, NodeId)> {
        let weights = self.demand.clone().unwrap_or_else(|| self.unit_weights());
        let weight = |addr: &Ipv4Addr| weights.get(addr).copied().unwrap_or(0);
        let mut projected: BTreeMap<NodeId, u64> = self
            .sites
            .keys()
            .filter(|id| !self.dead.contains(id))
            .map(|&id| (id, 0))
            .collect();
        let mut tenants = 0u64;
        let mut total = 0u64;
        for (addr, home) in &self.locations {
            let home = self.migrating.get(addr).map_or(home, |m| &m.to);
            if let Some(load) = projected.get_mut(home) {
                *load += weight(addr);
                total += weight(addr);
                tenants += 1;
            }
        }
        let unit = (total / tenants.max(1)).max(1);
        let threshold_w = threshold.max(1) as u64 * unit;
        let mut moves = Vec::new();
        // Each move strictly narrows the spread, so this terminates; the
        // cap is belt-and-braces against pathological weight sets.
        while moves.len() <= self.locations.len() {
            let Some((&hot, &hot_w)) = projected.iter().max_by_key(|&(&id, &w)| (w, Reverse(id)))
            else {
                break;
            };
            let Some((&cold, &cold_w)) = projected.iter().min_by_key(|&(&id, &w)| (w, id)) else {
                break;
            };
            let spread = hot_w - cold_w;
            if hot == cold || spread < threshold_w {
                break;
            }
            // The heaviest movable tenant whose move strictly narrows
            // the spread (0 < w < spread); address order breaks ties.
            let mut candidates: Vec<(u64, Ipv4Addr)> = self
                .locations
                .iter()
                .filter(|&(addr, &home)| home == hot && !self.migrating.contains_key(addr))
                .map(|(&addr, _)| (weight(&addr), addr))
                .filter(|&(w, _)| w > 0 && w < spread)
                .collect();
            candidates.sort_unstable_by_key(|&(w, addr)| (Reverse(w), addr));
            let site = self.sites.get(&hot).expect("platform");
            let chosen = candidates.into_iter().find(|&(_, addr)| {
                // Movable: no VM (instant move) or a Running/Suspended one.
                match site.switch.binding(addr) {
                    None => true,
                    Some(vm) => site
                        .host
                        .vm(vm)
                        .map(|v| matches!(v.state, VmState::Running | VmState::Suspended))
                        .unwrap_or(false),
                }
            });
            let Some((w, addr)) = chosen else {
                break;
            };
            if self.migrate(addr, cold, now).is_err() {
                break;
            }
            *projected.get_mut(&hot).expect("present") -= w;
            *projected.get_mut(&cold).expect("present") += w;
            moves.push((addr, hot, cold));
        }
        moves
    }
}
