//! The fleet's sites behind their wake index (DESIGN.md §15).

use std::collections::{BTreeMap, BTreeSet};

use innet_packet::Packet;
use innet_sim::des::SimTime;
use innet_topology::NodeId;

use super::FleetStats;
use crate::switch::SwitchController;
use crate::vm::Host;

/// One platform's host, switch controller, and shared registry.
pub(super) struct Site {
    pub(super) host: Host,
    pub(super) switch: SwitchController,
    pub(super) obs: innet_obs::Registry,
}

impl Site {
    /// Advances the host to `at`, appending what its VMs transmit: the
    /// fleet's only [`Host::advance`] call, so
    /// [`FleetStats::site_advances`] counts them all.
    pub(super) fn advance(
        &mut self,
        id: NodeId,
        at: SimTime,
        stats: &mut FleetStats,
        out: &mut Vec<(NodeId, u16, Packet)>,
    ) {
        stats.site_advances += 1;
        let tx = self.host.advance(at);
        out.extend(tx.into_iter().map(|(_, iface, p)| (id, iface, p)));
    }
}

/// Every site by [`NodeId`], and the woken ones: those handed out
/// mutably since [`Sites::retain_woken`] last let them go. The fields
/// are private to this module because a VM enters a timed transition
/// only through a `&mut Site` — so a site outside `wake` has none.
pub(super) struct Sites {
    map: BTreeMap<NodeId, Site>,
    wake: BTreeSet<NodeId>,
}

impl std::ops::Deref for Sites {
    type Target = BTreeMap<NodeId, Site>;

    fn deref(&self) -> &Self::Target {
        &self.map
    }
}

impl Sites {
    pub(super) fn new(map: BTreeMap<NodeId, Site>) -> Sites {
        let wake = BTreeSet::new();
        Sites { map, wake }
    }

    pub(super) fn get_mut(&mut self, id: &NodeId) -> Option<&mut Site> {
        let site = self.map.get_mut(id)?;
        self.wake.insert(*id);
        Some(site)
    }

    pub(super) fn is_woken(&self, id: &NodeId) -> bool {
        self.wake.contains(id)
    }

    /// Visits the woken sites in ascending id; one stays woken while
    /// `keep` says so.
    pub(super) fn retain_woken(&mut self, mut keep: impl FnMut(NodeId, &mut Site) -> bool) {
        let map = &mut self.map;
        self.wake
            .retain(|id| keep(*id, map.get_mut(id).expect("only sites are woken")));
    }
}
