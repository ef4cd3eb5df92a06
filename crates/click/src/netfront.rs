//! A netfront-style packet ring.
//!
//! ClickOS VMs receive and send packets through Xen netfront/netback shared
//! rings; each packet crosses the ring with a copy and a checksum pass. Our
//! `FromNetfront`/`ToNetfront` elements reproduce that per-packet I/O cost by
//! moving every packet through this ring: one copy into a fixed slot plus a
//! 16-bit folding checksum over the copied bytes.
//!
//! This cost floor matters for fidelity: the paper's Figure 8 shows
//! throughput staying flat while tenant configurations are added to a VM
//! *because* per-packet I/O dominates the linear classifier scan at first.
//! Without a realistic I/O cost, adding tenants would immediately show up as
//! a throughput droop.

use innet_packet::{internet_checksum, Packet};

/// Size in bytes of one ring slot (one MTU-sized frame plus slack).
pub const SLOT_SIZE: usize = 2048;

/// Default number of slots.
///
/// Xen's netfront ring has 256 entries, but the hot working set is the
/// handful of in-flight slots; we default to 64 so that many-VM hosts
/// (Figure 12 runs 100 rings on one core) keep their rings cache-resident
/// the way a NIC-bound testbed effectively does.
pub const DEFAULT_SLOTS: usize = 64;

/// A fixed-size packet ring emulating the netfront/netback data path.
#[derive(Debug)]
pub struct NetfrontRing {
    slots: Vec<u8>,
    n_slots: usize,
    head: usize,
    /// Packets moved through the ring since creation.
    pub packets: u64,
    /// Bytes moved through the ring since creation.
    pub bytes: u64,
    /// Running XOR of slot checksums; read by benchmarks so the checksum
    /// work cannot be optimized away.
    pub csum_acc: u16,
}

impl Default for NetfrontRing {
    fn default() -> Self {
        NetfrontRing::new(DEFAULT_SLOTS)
    }
}

impl NetfrontRing {
    /// Creates a ring with `n_slots` slots.
    pub fn new(n_slots: usize) -> NetfrontRing {
        let n_slots = n_slots.max(1);
        NetfrontRing {
            slots: vec![0; n_slots * SLOT_SIZE],
            n_slots,
            head: 0,
            packets: 0,
            bytes: 0,
            csum_acc: 0,
        }
    }

    /// Moves a packet through the ring: copies its bytes into the next slot
    /// and checksums the copy, accounting the transfer.
    pub fn transfer(&mut self, pkt: &Packet) {
        let len = pkt.len().min(SLOT_SIZE);
        let base = self.head * SLOT_SIZE;
        self.slots[base..base + len].copy_from_slice(&pkt.bytes()[..len]);
        self.csum_acc ^= internet_checksum(&self.slots[base..base + len]);
        self.head = (self.head + 1) % self.n_slots;
        self.packets += 1;
        self.bytes += len as u64;
    }

    /// Moves the ring out, leaving behind one with no slots that must not
    /// transfer again. The compiled plan takes over a netfront element's
    /// ring this way instead of allocating a second one.
    pub(crate) fn take(&mut self) -> NetfrontRing {
        let husk = NetfrontRing {
            slots: Vec::new(),
            n_slots: 1,
            head: 0,
            packets: 0,
            bytes: 0,
            csum_acc: 0,
        };
        std::mem::replace(self, husk)
    }

    /// Moves a whole batch through the ring in one call.
    ///
    /// This is the batched netfront drain: the per-packet copy and
    /// checksum are unavoidable (they are the cost being modelled), but
    /// one call covers the whole batch so the driver pays the ring's
    /// bookkeeping and call overhead once per batch rather than once per
    /// packet. Accounting and checksum accumulation are identical to
    /// calling [`NetfrontRing::transfer`] per packet.
    pub fn transfer_batch(&mut self, pkts: &[Packet]) {
        for pkt in pkts {
            self.transfer(pkt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use innet_packet::PacketBuilder;

    #[test]
    fn accounts_transfers() {
        let mut ring = NetfrontRing::new(4);
        let pkt = PacketBuilder::udp().pad_to(100).build();
        for _ in 0..10 {
            ring.transfer(&pkt);
        }
        assert_eq!(ring.packets, 10);
        assert_eq!(ring.bytes, 1000);
    }

    #[test]
    fn batch_transfer_matches_per_packet() {
        let pkts: Vec<Packet> = (0..7)
            .map(|i| PacketBuilder::udp().pad_to(100 + i as usize).build())
            .collect();
        let mut one = NetfrontRing::new(4);
        let mut batched = NetfrontRing::new(4);
        for p in &pkts {
            one.transfer(p);
        }
        batched.transfer_batch(&pkts);
        assert_eq!(one.packets, batched.packets);
        assert_eq!(one.bytes, batched.bytes);
        assert_eq!(one.csum_acc, batched.csum_acc);
        assert_eq!(one.head, batched.head);
    }

    #[test]
    fn wraps_around() {
        let mut ring = NetfrontRing::new(2);
        let pkt = PacketBuilder::udp().pad_to(64).build();
        for _ in 0..5 {
            ring.transfer(&pkt);
        }
        assert_eq!(ring.head, 1);
    }

    /// The checksum kernel's result over a seeded trace of mixed frame
    /// sizes, 1 B to past a slot, pinned to the constant the big-endian
    /// word loop computed: a faster kernel must reproduce it bit for bit.
    #[test]
    fn checksum_accumulator_is_pinned_on_a_seeded_trace() {
        let mut state: u64 = 0x6e65_7466_726f_6e74;
        let mut next = || {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let mut ring = NetfrontRing::new(5);
        for _ in 0..500 {
            let len = 1 + (next() % 2100) as usize;
            let frame: Vec<u8> = (0..len).map(|_| (next() >> 56) as u8).collect();
            ring.transfer(&Packet::from_bytes(frame));
        }
        assert_eq!((ring.packets, ring.bytes), (500, 523_586));
        assert_eq!(ring.csum_acc, 0x0a14);
    }

    #[test]
    fn oversized_packets_truncated_into_slot() {
        let mut ring = NetfrontRing::new(1);
        let pkt = PacketBuilder::udp().pad_to(SLOT_SIZE + 500).build();
        ring.transfer(&pkt);
        assert_eq!(ring.bytes, SLOT_SIZE as u64);
    }
}
