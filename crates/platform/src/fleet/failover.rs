//! Failover: killing a platform and cold re-homing the tenants it
//! strands.

use std::net::Ipv4Addr;

use innet_sim::des::SimTime;
use innet_topology::NodeId;

use super::migration::MigrationStage;
use super::{Fleet, FleetError};

impl Fleet {
    /// Kills a platform: its host stops advancing, packets for it are
    /// re-routed or counted as [`super::FleetStats::dead_drops`], and any
    /// migration whose VM state was on the dead machine is lost.
    /// Returns the tenants left homed on the dead platform, ascending —
    /// the set a failover pass must re-home.
    pub fn kill_platform(
        &mut self,
        platform: NodeId,
        _now: SimTime,
    ) -> Result<Vec<Ipv4Addr>, FleetError> {
        if !self.sites.contains_key(&platform) {
            return Err(FleetError::UnknownPlatform(platform));
        }
        if !self.dead.insert(platform) {
            return Ok(Vec::new());
        }
        // Resolve migrations touching the dead platform.
        let addrs: Vec<Ipv4Addr> = self.migrating.keys().copied().collect();
        for addr in addrs {
            let m = self.migrating.get(&addr).expect("just listed");
            let lost = match &m.stage {
                // VM still parked on the dead source: lost with it.
                MigrationStage::Suspending { .. } => m.from == platform,
                // State headed to (or resuming on) the dead destination.
                MigrationStage::Transferring { .. } | MigrationStage::Resuming { .. } => {
                    m.to == platform
                }
            };
            if lost {
                let m = self.migrating.remove(&addr).expect("present");
                self.stats.dead_drops += m.buffered.len() as u64;
                // Land the tenant's registration on the dead platform so
                // the failover pass sees it and re-homes it. Suspending:
                // it is still registered at `from` (dead). Later stages:
                // the entry travels with the migration — re-register it.
                if let MigrationStage::Transferring { entry, .. } = m.stage {
                    let site = self.sites.get_mut(&platform).expect("exists");
                    site.switch.register(*entry);
                    self.locations.insert(addr, platform);
                }
            }
        }
        // Dead platforms stop being CDN edges.
        for edges in self.replicas.values_mut() {
            edges.retain(|&e| e != platform);
        }
        self.replicas.retain(|_, e| !e.is_empty());
        let mut affected: Vec<Ipv4Addr> = self
            .locations
            .iter()
            .filter(|&(addr, &home)| home == platform && !self.migrating.contains_key(addr))
            .map(|(&addr, _)| addr)
            .collect();
        affected.sort_unstable();
        Ok(affected)
    }

    /// Re-homes a tenant onto `to` as a cold move: the old VM (if any,
    /// typically on a dead platform) is discarded, the registration
    /// moves, and the next packet boots a fresh VM at the new home. Use
    /// [`Fleet::migrate`] for live moves that carry VM state.
    pub fn rehome(&mut self, addr: Ipv4Addr, to: NodeId) -> Result<(), FleetError> {
        if !self.sites.contains_key(&to) {
            return Err(FleetError::UnknownPlatform(to));
        }
        if self.dead.contains(&to) {
            return Err(FleetError::DeadPlatform(to));
        }
        if self.migrating.contains_key(&addr) {
            return Err(FleetError::MigrationInProgress(addr));
        }
        let from = self
            .locations
            .get(&addr)
            .copied()
            .ok_or(FleetError::UnknownTenant(addr))?;
        if from == to {
            return Ok(());
        }
        let src = self.sites.get_mut(&from).expect("location is a platform");
        if let Some(vm) = src.switch.binding(addr) {
            let _ = src.host.destroy(vm);
        }
        let entry = src
            .switch
            .unregister(addr)
            .ok_or(FleetError::UnknownTenant(addr))?;
        let dst = self.sites.get_mut(&to).expect("checked above");
        dst.switch.register(entry);
        self.locations.insert(addr, to);
        self.stats.rehomes += 1;
        Ok(())
    }
}
