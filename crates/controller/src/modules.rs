//! The installed-module table: the one owner of "what is installed
//! where".
//!
//! The paper's controller "iterates over the platforms" (§4.5) and commits
//! to the first that verifies. Everything that iteration asks of the
//! installed modules — does this platform have a free slot, in which
//! order are the platforms tried, is this address taken — is a function
//! of the module list, and the table keeps each answer up to date instead
//! of recounting the list per request:
//!
//! * **used slots** per platform,
//! * **live addresses** per platform,
//! * **the placement order**, `(score, platform)` ascending — the order
//!   [`PlacementContext::rank`] computes from scratch.
//!
//! **Single writer.** Only [`ModuleTable::insert`], [`ModuleTable::remove`]
//! and [`ModuleTable::replace_all`] change the list, and each moves the
//! three views with it: a commit or a kill touches one platform's count,
//! one address and one entry of the order. Every write ends with a
//! `debug_assert` that the views equal a recount.

use std::collections::{BTreeSet, HashMap};
use std::net::Ipv4Addr;

use innet_topology::{NodeId, NodeKind, Topology};

use crate::{netmodel::InstalledModule, placement::PlacementContext};

/// Installed modules in commit order, indexed for placement.
pub(crate) struct ModuleTable {
    modules: Vec<InstalledModule>,
    /// Module slots per topology node (0 for a node that is not a
    /// platform).
    capacity: Vec<usize>,
    /// Modules installed per topology node.
    used: Vec<usize>,
    /// Per topology node, the addresses its modules hold. Counted, so a
    /// module set adopted with a repeated address stays exact when one of
    /// the holders goes.
    addrs: Vec<HashMap<Ipv4Addr, usize>>,
    /// Every platform under its current [`PlacementContext::score`]; ties
    /// order by ascending node id, as `rank`'s sort does.
    ranked: BTreeSet<(u64, NodeId)>,
    placement: PlacementContext,
}

impl ModuleTable {
    /// An empty table over `topo`'s platforms.
    pub(crate) fn new(topo: &Topology, placement: PlacementContext) -> ModuleTable {
        let capacity = topo.nodes.iter().map(|n| match &n.kind {
            NodeKind::Platform(spec) => spec.capacity,
            _ => 0,
        });
        let mut table = ModuleTable {
            modules: Vec::new(),
            capacity: capacity.collect(),
            used: Vec::new(),
            addrs: Vec::new(),
            ranked: BTreeSet::new(),
            placement,
        };
        table.replace_all(topo, Vec::new());
        table
    }

    /// The installed modules, in commit order.
    pub(crate) fn modules(&self) -> &[InstalledModule] {
        &self.modules
    }

    /// Whether `platform` has a free module slot — the one definition of
    /// "room" every placement decision goes through.
    pub(crate) fn has_room(&self, platform: NodeId) -> bool {
        self.used[platform] < self.capacity[platform]
    }

    /// Whether a module on `platform` holds `addr`.
    pub(crate) fn holds(&self, platform: NodeId, addr: Ipv4Addr) -> bool {
        self.addrs[platform].contains_key(&addr)
    }

    /// The platforms in placement-preference order, walked lazily: taking
    /// the first costs O(log platforms).
    pub(crate) fn ranked(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.ranked.iter().map(|&(_, platform)| platform)
    }

    /// Appends a committed module.
    pub(crate) fn insert(&mut self, module: InstalledModule) {
        self.account(module.platform, module.addr, true);
        self.modules.push(module);
        debug_assert!(self.views_match_recount());
    }

    /// Removes the module with the given id, if installed.
    pub(crate) fn remove(&mut self, id: u64) -> Option<InstalledModule> {
        let at = self.modules.iter().position(|m| m.id == id)?;
        let module = self.modules.remove(at);
        self.account(module.platform, module.addr, false);
        debug_assert!(self.views_match_recount());
        Some(module)
    }

    /// Replaces the whole module list and rebuilds the views from it:
    /// counts and addresses by one pass over the list, the order from
    /// [`PlacementContext::scored`] (what `rank` sorts). Every module's
    /// platform must be a node of `topo`.
    pub(crate) fn replace_all(&mut self, topo: &Topology, modules: Vec<InstalledModule>) {
        self.modules = modules;
        (self.used, self.addrs) = self.recount();
        let used = &self.used;
        self.ranked = self.placement.scored(topo, |p| used[p]).collect();
    }

    /// Moves `platform`'s count, address set and order entry by one
    /// module holding `addr`, installed or removed.
    fn account(&mut self, platform: NodeId, addr: Ipv4Addr, installed: bool) {
        let before = self.score(platform);
        let holders = self.addrs[platform].entry(addr).or_insert(0);
        if installed {
            self.used[platform] += 1;
            *holders += 1;
        } else {
            self.used[platform] -= 1;
            *holders -= 1;
            if *holders == 0 {
                self.addrs[platform].remove(&addr);
            }
        }
        // Only platforms are in the order; a node that is not one has no
        // entry to move.
        if self.ranked.remove(&(before, platform)) {
            self.ranked.insert((self.score(platform), platform));
        }
    }

    fn score(&self, platform: NodeId) -> u64 {
        self.placement
            .score(platform, self.used[platform], self.capacity[platform])
    }

    /// Counts and address sets counted off the module list.
    fn recount(&self) -> (Vec<usize>, Vec<HashMap<Ipv4Addr, usize>>) {
        let mut used = vec![0; self.capacity.len()];
        let mut addrs = vec![HashMap::new(); self.capacity.len()];
        for m in &self.modules {
            used[m.platform] += 1;
            *addrs[m.platform].entry(m.addr).or_insert(0) += 1;
        }
        (used, addrs)
    }

    /// The invariant: the views are a pure function of the module list.
    fn views_match_recount(&self) -> bool {
        let (used, addrs) = self.recount();
        used == self.used
            && addrs == self.addrs
            && self.ranked.iter().all(|&(s, p)| s == self.score(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use innet_click::ClickConfig;

    fn module(id: u64, platform: NodeId, addr: Ipv4Addr) -> InstalledModule {
        InstalledModule {
            id,
            name: format!("m{id}"),
            platform,
            addr,
            config: ClickConfig::parse("FromNetfront() -> ToNetfront();").unwrap(),
            sandboxed: false,
            owner: "c".to_string(),
        }
    }

    #[test]
    fn writes_move_one_platform_and_keep_rank_order() {
        let topo = Topology::figure3();
        let ctx = PlacementContext::new(&topo);
        let mut table = ModuleTable::new(&topo, PlacementContext::new(&topo));
        let order = |t: &ModuleTable| t.ranked().collect::<Vec<_>>();
        assert_eq!(order(&table), ctx.rank(&topo, &HashMap::new()));

        let p3 = topo.index_of("platform3").unwrap();
        let a = Ipv4Addr::new(203, 0, 113, 10);
        // Half of platform3's slots taken: it no longer ranks first.
        for id in 0..500 {
            table.insert(module(id, p3, Ipv4Addr::from(u32::from(a) + id as u32)));
        }
        assert_eq!(order(&table), ctx.rank(&topo, &HashMap::from([(p3, 500)])));
        assert_ne!(order(&table)[0], p3);
        assert!(table.has_room(p3) && table.holds(p3, a));
        assert!(table.remove(0).is_some() && table.remove(0).is_none());
        assert!(!table.holds(p3, a));
        assert_eq!(order(&table), ctx.rank(&topo, &HashMap::from([(p3, 499)])));
    }

    #[test]
    fn a_repeated_address_is_held_until_its_last_holder_goes() {
        // `adopt_modules` installs whatever it is given, repeated
        // addresses and modules on nodes that are not platforms included.
        let topo = Topology::figure3();
        let mut table = ModuleTable::new(&topo, PlacementContext::new(&topo));
        let p3 = topo.index_of("platform3").unwrap();
        let border = topo.index_of("border").unwrap();
        let a = Ipv4Addr::new(203, 0, 113, 10);
        table.replace_all(
            &topo,
            vec![module(1, p3, a), module(2, p3, a), module(3, border, a)],
        );
        assert!(!table.has_room(border), "not a platform: no slots");
        table.remove(1).unwrap();
        assert!(table.holds(p3, a));
        table.remove(2).unwrap();
        assert!(!table.holds(p3, a));
        table.remove(3).unwrap();
        assert!(table.modules().is_empty());
    }
}
