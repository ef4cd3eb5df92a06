//! The live-migration protocol: suspend on the source, bulk state
//! transfer over the bottleneck path link, resume on the destination,
//! with the tenant's traffic buffered at the fleet layer for the whole
//! window (see the [module docs](super)).

use std::net::Ipv4Addr;

use innet_packet::Packet;
use innet_sim::des::SimTime;
use innet_sim::link::Link as SimLink;
use innet_topology::NodeId;

use super::{Fleet, FleetError};
use crate::calib::vm_mem_mb;
use crate::switch::ClientEntry;
use crate::vm::{HostError, Vm, VmState};

/// A completed live migration, for downtime accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationRecord {
    /// The migrated tenant.
    pub addr: Ipv4Addr,
    /// Source platform.
    pub from: NodeId,
    /// Destination platform.
    pub to: NodeId,
    /// When the migration was triggered.
    pub started_at: SimTime,
    /// When the tenant's VM was runnable on the destination.
    pub completed_at: SimTime,
    /// `completed_at - started_at`: the window during which arriving
    /// packets were buffered rather than processed.
    pub downtime_ns: SimTime,
}

/// Where a migration currently is in the protocol.
pub(super) enum MigrationStage {
    /// Waiting for the source host's suspend to complete.
    Suspending { done_at: SimTime },
    /// State in flight over the fabric.
    Transferring {
        arrive_at: SimTime,
        vm: Box<Vm>,
        entry: Box<ClientEntry>,
    },
    /// Resuming on the destination host.
    Resuming { ready_at: SimTime },
}

pub(super) struct Migration {
    pub(super) from: NodeId,
    pub(super) to: NodeId,
    pub(super) started_at: SimTime,
    pub(super) stage: MigrationStage,
    /// Packets that arrived for the tenant during the window, flushed in
    /// arrival order at completion.
    pub(super) buffered: Vec<Packet>,
}

impl Fleet {
    /// Completed migrations, in completion order.
    pub fn migrations(&self) -> &[MigrationRecord] {
        &self.records
    }

    /// Starts a live migration of `addr`'s VM to platform `to`.
    ///
    /// The tenant's traffic is buffered at the fleet layer from this
    /// instant until the VM is runnable on `to`; advancing fleet time
    /// ([`crate::FleetDriver::run`]) drives the protocol through its
    /// stages. A tenant with no bound VM
    /// (never active, or reclaimed) moves instantly with zero downtime —
    /// there is no state to transfer.
    pub fn migrate(&mut self, addr: Ipv4Addr, to: NodeId, now: SimTime) -> Result<(), FleetError> {
        if self.migrating.contains_key(&addr) {
            return Err(FleetError::MigrationInProgress(addr));
        }
        if !self.sites.contains_key(&to) {
            return Err(FleetError::UnknownPlatform(to));
        }
        if self.dead.contains(&to) {
            return Err(FleetError::DeadPlatform(to));
        }
        let from = self
            .locations
            .get(&addr)
            .copied()
            .ok_or(FleetError::UnknownTenant(addr))?;
        if self.dead.contains(&from) {
            // Nothing live to migrate; failover uses `rehome` instead.
            return Err(FleetError::DeadPlatform(from));
        }
        if from == to {
            return Ok(());
        }
        // The path must exist before we take the VM down.
        self.path(from, to).ok_or(FleetError::NoPath(from, to))?;
        let src = self.sites.get_mut(&from).expect("location is a platform");
        let Some(vm) = src.switch.binding(addr) else {
            // No VM: move the registration, done.
            let entry = src
                .switch
                .unregister(addr)
                .ok_or(FleetError::UnknownTenant(addr))?;
            let dst = self.sites.get_mut(&to).expect("checked above");
            dst.switch.register(entry);
            self.locations.insert(addr, to);
            self.stats.migrations_started += 1;
            self.stats.migrations_completed += 1;
            self.records.push(MigrationRecord {
                addr,
                from,
                to,
                started_at: now,
                completed_at: now,
                downtime_ns: 0,
            });
            return Ok(());
        };
        let state = src.host.vm(vm)?.state;
        let stage = match state {
            VmState::Running => {
                let done_at = src.host.suspend(vm, now)?;
                MigrationStage::Suspending { done_at }
            }
            // Already parked: skip straight past the suspend.
            VmState::Suspended => MigrationStage::Suspending { done_at: now },
            _ => return Err(FleetError::Host(HostError::BadState(vm, "migrate"))),
        };
        self.stats.migrations_started += 1;
        self.migrating.insert(
            addr,
            Migration {
                from,
                to,
                started_at: now,
                stage,
                buffered: Vec::new(),
            },
        );
        Ok(())
    }

    /// Advances every migration whose current stage deadline has passed,
    /// repeating until a fixed point — a single `advance` far enough
    /// into the future carries a migration all the way to completion.
    pub(super) fn advance_migrations(
        &mut self,
        now: SimTime,
        out: &mut Vec<(NodeId, u16, Packet)>,
    ) {
        while !self.migrating.is_empty() {
            let mut changed = false;
            let addrs: Vec<Ipv4Addr> = self.migrating.keys().copied().collect();
            for addr in addrs {
                let m = self.migrating.get_mut(&addr).expect("just listed");
                match &mut m.stage {
                    MigrationStage::Suspending { done_at } if now >= *done_at => {
                        let done_at = *done_at;
                        let (from, to) = (m.from, m.to);
                        let attrs = self.path(from, to).expect("checked at migrate()");
                        let src = self.sites.get_mut(&from).expect("platform");
                        // Let the suspend complete, then lift the VM out.
                        src.advance(from, done_at, &mut self.stats, out);
                        let vm_id = src.switch.binding(addr).expect("bound at migrate()");
                        let vm = match src.host.extract(vm_id) {
                            Ok(vm) => vm,
                            Err(_) => {
                                // The VM vanished mid-protocol (e.g. an
                                // idle reclaim destroyed it). Abort the
                                // migration; buffered packets replay at
                                // the original home.
                                self.abort_migration(addr, now, out);
                                changed = true;
                                continue;
                            }
                        };
                        let entry = src.switch.unregister(addr).expect("registered");
                        let link = SimLink::new(attrs.bandwidth_bps as f64, attrs.latency_ns, 0.0);
                        let bytes = vm_mem_mb(vm.kind) * 1024 * 1024;
                        let arrive_at = done_at + link.bulk_transfer_ns(bytes);
                        let m = self.migrating.get_mut(&addr).expect("still migrating");
                        m.stage = MigrationStage::Transferring {
                            arrive_at,
                            vm: Box::new(vm),
                            entry: Box::new(entry),
                        };
                        changed = true;
                    }
                    MigrationStage::Transferring { arrive_at, .. } if now >= *arrive_at => {
                        let arrive_at = *arrive_at;
                        let to = m.to;
                        let stage = std::mem::replace(
                            &mut m.stage,
                            MigrationStage::Resuming { ready_at: 0 },
                        );
                        let MigrationStage::Transferring { vm, entry, .. } = stage else {
                            unreachable!("matched above");
                        };
                        let dst = self.sites.get_mut(&to).expect("platform");
                        match dst.host.implant(*vm, arrive_at) {
                            Ok((id, ready_at)) => {
                                dst.switch.adopt(*entry, id, arrive_at);
                                self.locations.insert(addr, to);
                                let m = self.migrating.get_mut(&addr).expect("migrating");
                                m.stage = MigrationStage::Resuming { ready_at };
                            }
                            Err(_) => {
                                // Destination filled up during the
                                // transfer: the VM's state is lost (as a
                                // destroy would lose it); count the
                                // lost VM and drop the migration.
                                self.stats.migrations_failed += 1;
                                self.abort_migration(addr, now, out);
                            }
                        }
                        changed = true;
                    }
                    MigrationStage::Resuming { ready_at } if now >= *ready_at => {
                        let ready_at = *ready_at;
                        let (from, to, started_at) = (m.from, m.to, m.started_at);
                        let buffered = std::mem::take(&mut m.buffered);
                        self.migrating.remove(&addr);
                        let dst = self.sites.get_mut(&to).expect("platform");
                        // Complete the resume, then flush the window's
                        // packets in arrival order.
                        dst.advance(to, ready_at, &mut self.stats, out);
                        for pkt in buffered {
                            self.deliver_local(to, pkt, ready_at, out);
                        }
                        self.stats.migrations_completed += 1;
                        self.records.push(MigrationRecord {
                            addr,
                            from,
                            to,
                            started_at,
                            completed_at: ready_at,
                            downtime_ns: ready_at.saturating_sub(started_at),
                        });
                        changed = true;
                    }
                    _ => {}
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Abandons a migration, replaying its buffered packets at the
    /// tenant's current home.
    fn abort_migration(
        &mut self,
        addr: Ipv4Addr,
        now: SimTime,
        out: &mut Vec<(NodeId, u16, Packet)>,
    ) {
        if let Some(m) = self.migrating.remove(&addr) {
            let home = self.locations.get(&addr).copied().unwrap_or(m.from);
            for pkt in m.buffered {
                self.deliver_local(home, pkt, now, out);
            }
        }
    }
}
