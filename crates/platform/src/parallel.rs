//! The runner: one verified configuration executed at full speed by N
//! router replicas, each driven by the same loop over its own share of
//! the input.
//!
//! The paper's platform runs each tenant module as one ClickOS VM on one
//! vCPU; scaling a hot module means giving it more cores, and a NIC's RSS
//! splits the flows before any core touches them. The runner does the
//! same. With **one effective worker** a run is one engine driven in the
//! calling thread, batch by batch, over the whole input: no partition and
//! no thread. From **two workers up** the input is partitioned once per
//! call — at ingress, the way RSS hashes a frame to a receive queue — and
//! one scoped thread per replica runs that same loop over its share:
//!
//! * every replica owns its own engine built from the same verified
//!   [`ClickConfig`], and its own [`PacketPool`] — no shared element
//!   state, no locks and no hand-off on the data path;
//! * the partition pins each 5-tuple to one share ([`FlowKey::shard_of`])
//!   and keeps each share in input order, so all packets of a flow
//!   traverse the same replica in arrival order and per-flow output
//!   order is preserved.
//!
//! How much state a configuration keeps decides how it shards. The
//! element registry's field-effect summaries place every class on the
//! [`Shardability`] lattice, and [`Registry::config_shardability`]
//! aggregates the verdict:
//!
//! * **`Stateless`** — forwarding is a pure function of each packet;
//!   replicas shard freely under the directed flow hash.
//! * **`FlowPartitionable`** — state is keyed by the connection (NAT
//!   tables, firewall conntrack, per-flow meters). Still sharded, but
//!   the partition switches to the *symmetric* hash
//!   ([`FlowKey::symmetric_shard_of`]), which pins both directions of a
//!   connection to the same replica so each replica owns a disjoint
//!   slice of connection state.
//! * **`Global`** — state spans connections (queues, token buckets,
//!   schedulers, opaque VMs); the runner degrades to **one worker**
//!   rather than silently misbehaving across replicas.
//!
//! The data-plane numbers of Figures 8, 11 and 12 are measured with this
//! runner, not modelled. Absolute rates differ from the authors' 10 Gb/s
//! testbed (our substrate is an in-process ring, not a NIC), but the
//! *shapes* — flat consolidation until the demux scan bites, sandboxing
//! hurting small packets most, per-middlebox differences — emerge from
//! the same mechanisms.

use std::borrow::Borrow;
use std::time::Instant;

use innet_click::{ClickConfig, Registry, RouterError, Shardability};
use innet_packet::{FlowKey, Packet, PacketPool};

use crate::engine::Engine;
use crate::runner::RunnerConfig;

/// Virtual-time step per packet: 1 µs, so token buckets refill
/// realistically.
const STEP_NS: u64 = 1_000;

/// Result of a timed run.
#[derive(Debug, Clone, Copy)]
pub struct ParallelStats {
    /// Packets offered to the runner.
    pub packets: u64,
    /// Packets transmitted out of all replicas.
    pub transmitted: u64,
    /// Always 0: each replica takes its share of the input directly, so
    /// there is no hand-off to lose a packet on.
    pub dropped: u64,
    /// Wall-clock nanoseconds elapsed.
    pub elapsed_ns: u64,
    /// Workers that actually ran (1 for `Global` configurations).
    pub workers: usize,
}

impl ParallelStats {
    /// *Delivered* rate in packets/second — transmitted packets over
    /// elapsed time; 0.0 when no time elapsed (a rate from a zero-length
    /// interval would otherwise be `inf`/`NaN`).
    pub fn pps(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.transmitted as f64 / (self.elapsed_ns as f64 / 1e9)
    }

    /// *Offered* (input) rate in packets/second — what the runner was
    /// given, whether or not the configuration forwarded it; 0.0 when no
    /// time elapsed.
    pub fn offered_pps(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.packets as f64 / (self.elapsed_ns as f64 / 1e9)
    }

    /// Delivered throughput in Gbit/s assuming `frame_len`-byte frames.
    pub fn gbps(&self, frame_len: usize) -> f64 {
        self.pps() * frame_len as f64 * 8.0 / 1e9
    }

    /// Offered throughput in Gbit/s assuming `frame_len`-byte frames.
    pub fn offered_gbps(&self, frame_len: usize) -> f64 {
        self.offered_pps() * frame_len as f64 * 8.0 / 1e9
    }
}

/// One replica: an engine, the buffer pool its round inputs are copied
/// from, and its `innet_parallel_*{worker}` counters.
struct Replica {
    engine: Engine,
    /// Round inputs are copies of the replica's share, and in
    /// non-collecting runs the transmitted buffers recycle straight back
    /// into the next round's copies.
    pool: PacketPool,
    /// `(packets, transmitted)` when metrics are attached.
    counters: Option<(innet_obs::Counter, innet_obs::Counter)>,
}

impl Replica {
    /// The run loop, the same for every worker count: the replica's
    /// engine driven over `share` `rounds` times in `batch`-sized
    /// batches, the way one ClickOS VM pins its Click thread to one vCPU.
    /// Virtual time starts at 0 and steps [`STEP_NS`] before each packet.
    /// Returns `(transmitted, collected)`.
    fn run<P: Borrow<Packet>>(
        &mut self,
        share: &[P],
        rounds: usize,
        batch: usize,
        collect: bool,
    ) -> (u64, Vec<(u16, Packet)>) {
        let mut now_ns = 0u64;
        let mut transmitted = 0u64;
        let mut out: Vec<(u16, Packet)> = Vec::new();
        for _ in 0..rounds {
            for chunk in share.chunks(batch) {
                let copies: Vec<Packet> = chunk
                    .iter()
                    .map(|p| self.pool.copy_of(p.borrow()))
                    .collect();
                self.engine.push_batch(copies, now_ns, STEP_NS);
                now_ns += STEP_NS * chunk.len() as u64;
                let before = out.len();
                self.engine.take_tx_into(&mut out);
                transmitted += (out.len() - before) as u64;
                if !collect {
                    for (_, pkt) in out.drain(..) {
                        self.pool.recycle(pkt);
                    }
                }
            }
        }
        if let Some((packets, tx)) = &self.counters {
            packets.add((share.len() * rounds) as u64);
            tx.add(transmitted);
        }
        (transmitted, out)
    }
}

/// The runner: N replicas of one router, each running the same loop over
/// its flow-hash share of the input. One replica runs in the calling
/// thread; two or more run on scoped threads. Build one with
/// [`RunnerConfig::parallel`](crate::RunnerConfig::parallel).
pub struct ParallelRunner {
    replicas: Vec<Replica>,
    requested_workers: usize,
    shardability: Shardability,
    batch: usize,
    /// Wall-clock duration of each `run` call (`innet_parallel_run_ns`).
    run_ns: Option<innet_obs::Histogram>,
}

impl ParallelRunner {
    /// Instantiates `config.workers` replicas of `cfg` (or one, if the
    /// configuration keeps global state and therefore cannot shard).
    pub(crate) fn with_config(
        cfg: &ClickConfig,
        config: RunnerConfig,
    ) -> Result<ParallelRunner, RouterError> {
        let registry = Registry::standard();
        let shardability = registry.config_shardability(cfg);
        let effective = if shardability == Shardability::Global {
            1
        } else {
            config.workers
        };
        let counters = config.metrics.as_ref().map(|reg| {
            (
                reg.labeled_counter("innet_parallel_packets_total", "worker"),
                reg.labeled_counter("innet_parallel_transmitted_total", "worker"),
            )
        });
        let mut replicas = Vec::with_capacity(effective);
        for w in 0..effective {
            let mut engine = Engine::build(cfg, &registry, config.compiled)?;
            if let Some(reg) = &config.metrics {
                // Replicas share the same click counters: the registry
                // hands out one shared cell per name, so `innet_click_*`
                // aggregates across workers.
                engine.attach_metrics(reg);
            }
            let label = w.to_string();
            replicas.push(Replica {
                engine,
                pool: PacketPool::new(),
                counters: counters
                    .as_ref()
                    .map(|(p, t)| (p.with(&label), t.with(&label))),
            });
        }
        Ok(ParallelRunner {
            replicas,
            requested_workers: config.workers,
            shardability,
            batch: config.batch,
            run_ns: config
                .metrics
                .as_ref()
                .map(|r| r.histogram("innet_parallel_run_ns")),
        })
    }

    /// Workers actually running (1 when the configuration keeps global
    /// state).
    pub fn effective_workers(&self) -> usize {
        self.replicas.len()
    }

    /// Workers asked for via [`RunnerConfig::workers`].
    pub fn requested_workers(&self) -> usize {
        self.requested_workers
    }

    /// The registry's [`Shardability`] verdict for this configuration
    /// ([`Registry::config_shardability`]): it decides both the worker
    /// count and the partition hash.
    pub fn shardability(&self) -> Shardability {
        self.shardability
    }

    /// Whether the replicas execute the compiled plan.
    pub fn is_compiled(&self) -> bool {
        self.replicas
            .first()
            .is_some_and(|r| r.engine.is_compiled())
    }

    /// Pushes the packet set through the replicas `rounds` times,
    /// measuring wall-clock time. Virtual time advances by 1 µs per
    /// packet; packets move in
    /// [`RunnerConfig::batch`](crate::RunnerConfig::batch)-sized batches.
    pub fn run(&mut self, packets: &[Packet], rounds: usize) -> ParallelStats {
        self.run_inner(packets, rounds, false).0
    }

    /// Like [`ParallelRunner::run`], but also returns every transmitted
    /// `(egress, packet)` pair. With one worker that is transmission
    /// order — the reference output the sharded runs' differential tests
    /// compare against. With more, the pairs are concatenated worker by
    /// worker: within one worker's slice — and therefore within any one
    /// flow — packets appear in transmission order.
    pub fn run_collect(
        &mut self,
        packets: &[Packet],
        rounds: usize,
    ) -> (ParallelStats, Vec<(u16, Packet)>) {
        self.run_inner(packets, rounds, true)
    }

    fn run_inner(
        &mut self,
        packets: &[Packet],
        rounds: usize,
        collect: bool,
    ) -> (ParallelStats, Vec<(u16, Packet)>) {
        let start = Instant::now();
        let batch = self.batch;
        let results = if let [replica] = self.replicas.as_mut_slice() {
            vec![replica.run(packets, rounds, batch, collect)]
        } else {
            let shares = self.partition(packets);
            std::thread::scope(|s| {
                let handles: Vec<_> = self
                    .replicas
                    .iter_mut()
                    .zip(&shares)
                    .map(|(replica, share)| {
                        s.spawn(move || replica.run(share, rounds, batch, collect))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker panicked"))
                    .collect()
            })
        };
        let mut transmitted = 0u64;
        let mut collected = Vec::new();
        for (tx, out) in results {
            transmitted += tx;
            collected.extend(out);
        }
        let stats = ParallelStats {
            packets: (packets.len() * rounds) as u64,
            transmitted,
            dropped: 0,
            elapsed_ns: start.elapsed().as_nanos().max(1) as u64,
            workers: self.replicas.len(),
        };
        if let Some(run_ns) = &self.run_ns {
            run_ns.observe(stats.elapsed_ns);
        }
        (stats, collected)
    }

    /// Splits the input into one share per replica, each in input order.
    /// Flow-partitionable configurations (NAT, stateful firewall) keep
    /// per-connection state, so both directions of a connection must
    /// land on the same replica: they partition under the symmetric hash,
    /// which keys on the remote endpoint and is invariant under source
    /// NAT. Stateless configurations keep the plain directed hash.
    fn partition<'a>(&self, packets: &'a [Packet]) -> Vec<Vec<&'a Packet>> {
        let workers = self.replicas.len();
        let symmetric = self.shardability == Shardability::FlowPartitionable;
        let mut shares: Vec<Vec<&Packet>> = (0..workers)
            .map(|_| Vec::with_capacity(packets.len() / workers + 1))
            .collect();
        for pkt in packets {
            let shard = if symmetric {
                FlowKey::symmetric_shard_of(pkt, workers)
            } else {
                FlowKey::shard_of(pkt, workers)
            };
            shares[shard].push(pkt);
        }
        shares
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::native::{consolidated_config, middlebox_config, plain_firewall};
    use innet_packet::PacketBuilder;
    use std::net::Ipv4Addr;

    fn trace(n: usize) -> Vec<Packet> {
        (0..n)
            .map(|i| {
                PacketBuilder::udp()
                    .src(
                        Ipv4Addr::new(8, 8, (i % 13) as u8, (i % 251) as u8 + 1),
                        1000,
                    )
                    .dst(Ipv4Addr::new(10, 0, 0, 1), 1500 + (i % 7) as u16)
                    .pad_to(64)
                    .build()
            })
            .collect()
    }

    #[test]
    fn stateless_config_shards_to_requested_workers() {
        let runner = RunnerConfig::new()
            .workers(4)
            .parallel(&plain_firewall())
            .unwrap();
        assert_eq!(runner.shardability(), Shardability::Stateless);
        assert_eq!(runner.effective_workers(), 4);
        assert_eq!(runner.requested_workers(), 4);
    }

    #[test]
    fn flow_partitionable_config_shards_under_symmetric_hash() {
        // NAT keeps per-connection state only: it shards, and the
        // verdict selects the symmetric partition hash.
        let cfg = middlebox_config("nat").unwrap();
        let runner = RunnerConfig::new().workers(8).parallel(&cfg).unwrap();
        assert_eq!(runner.shardability(), Shardability::FlowPartitionable);
        assert_eq!(runner.effective_workers(), 8);
        assert_eq!(runner.requested_workers(), 8);
    }

    #[test]
    fn global_config_degrades_to_one_worker() {
        // A queue shares timing state across all flows: replicating it
        // would change drop/ordering behavior, so the runner pins the
        // config to a single worker no matter how many were requested.
        let cfg = ClickConfig::parse("FromNetfront() -> Queue(16) -> ToNetfront();").unwrap();
        let runner = RunnerConfig::new().workers(8).parallel(&cfg).unwrap();
        assert_eq!(runner.shardability(), Shardability::Global);
        assert_eq!(runner.effective_workers(), 1);
        assert_eq!(runner.requested_workers(), 8);

        let rr = ClickConfig::parse(
            "FromNetfront() -> rr :: RoundRobinSwitch(2); rr[0] -> ToNetfront(); rr[1] -> ToNetfront();",
        )
        .unwrap();
        let runner = RunnerConfig::new().workers(4).parallel(&rr).unwrap();
        assert_eq!(runner.shardability(), Shardability::Global);
        assert_eq!(runner.effective_workers(), 1);
    }

    #[test]
    fn all_packets_accounted_for() {
        let mut runner = RunnerConfig::new()
            .workers(4)
            .batch(8)
            .parallel(&plain_firewall())
            .unwrap();
        let pkts = trace(1000);
        let stats = runner.run(&pkts, 3);
        assert_eq!(stats.packets, 3000);
        assert_eq!(stats.transmitted, 3000);
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.workers, 4);
    }

    #[test]
    fn consolidated_config_runs_sharded() {
        let clients: Vec<Ipv4Addr> = (0..8).map(|i| Ipv4Addr::new(203, 0, 113, 1 + i)).collect();
        let cfg = consolidated_config(&clients);
        let mut runner = RunnerConfig::new().workers(4).parallel(&cfg).unwrap();
        assert_eq!(runner.shardability(), Shardability::Stateless);
        let pkts: Vec<Packet> = (0..256)
            .map(|i| {
                PacketBuilder::udp()
                    .src(Ipv4Addr::new(8, 8, 8, (i % 251) as u8 + 1), 4000 + i as u16)
                    .dst(clients[i % clients.len()], 80)
                    .pad_to(64)
                    .build()
            })
            .collect();
        let stats = runner.run(&pkts, 2);
        assert_eq!(stats.transmitted, stats.packets);
    }

    #[test]
    fn metrics_published_per_worker() {
        let registry = innet_obs::Registry::new();
        let mut runner = RunnerConfig::new()
            .workers(2)
            .batch(4)
            .metrics(&registry)
            .parallel(&plain_firewall())
            .unwrap();
        let pkts = trace(100);
        runner.run(&pkts, 1);
        let per_worker = registry.labeled_counter("innet_parallel_packets_total", "worker");
        assert_eq!(per_worker.get("0") + per_worker.get("1"), 100);
        let tx = registry.labeled_counter("innet_parallel_transmitted_total", "worker");
        assert_eq!(tx.get("0") + tx.get("1"), 100);
        // Both replicas took a share: the partition spread the trace.
        assert!(per_worker.get("0") > 0 && per_worker.get("1") > 0);
        assert_eq!(registry.histogram("innet_parallel_run_ns").count(), 1);
    }

    #[test]
    fn run_collect_returns_transmissions_in_order() {
        let mut runner = RunnerConfig::new().parallel(&plain_firewall()).unwrap();
        let pkts: Vec<Packet> = (0..5)
            .map(|i| {
                PacketBuilder::udp()
                    .dst(Ipv4Addr::new(10, 0, 0, 1), 1000 + i)
                    .pad_to(64 + i as usize)
                    .build()
            })
            .collect();
        let (stats, out) = runner.run_collect(&pkts, 1);
        assert_eq!(stats.transmitted, 5);
        assert_eq!(out.len(), 5);
        for (i, (egress, pkt)) in out.iter().enumerate() {
            assert_eq!(*egress, 0);
            assert_eq!(pkt.len(), 64 + i);
        }
    }

    #[test]
    fn batched_run_matches_unbatched_counts() {
        let clients: Vec<Ipv4Addr> = (0..4).map(|i| Ipv4Addr::new(203, 0, 113, 1 + i)).collect();
        let cfg = consolidated_config(&clients);
        let pkts: Vec<Packet> = (0..97)
            .map(|i| {
                PacketBuilder::udp()
                    .dst(clients[i % clients.len()], 80)
                    .pad_to(64)
                    .build()
            })
            .collect();
        let mut unbatched = RunnerConfig::new().batch(1).parallel(&cfg).unwrap();
        let mut batched = RunnerConfig::new().batch(32).parallel(&cfg).unwrap();
        let a = unbatched.run(&pkts, 3);
        let b = batched.run(&pkts, 3);
        assert_eq!(a.packets, b.packets);
        assert_eq!(a.transmitted, b.transmitted);
    }

    #[test]
    fn one_effective_worker_spawns_no_thread_and_creates_no_ring() {
        // Below two effective workers the one replica runs the whole
        // input in the calling thread, unpartitioned: worker 0 is the
        // only worker that counts a packet — whether one worker was
        // asked for or a Global config degraded to one.
        let queue = ClickConfig::parse("FromNetfront() -> Queue(16) -> ToNetfront();").unwrap();
        for (cfg, workers) in [(plain_firewall(), 1), (queue, 8)] {
            let registry = innet_obs::Registry::new();
            let mut runner = RunnerConfig::new()
                .workers(workers)
                .batch(4)
                .metrics(&registry)
                .parallel(&cfg)
                .unwrap();
            assert_eq!(runner.effective_workers(), 1);
            let stats = runner.run(&trace(100), 2);
            assert_eq!(stats.packets, 200);
            assert_eq!(stats.dropped, 0);
            assert_eq!(stats.workers, 1);
            assert_eq!(registry.histogram("innet_parallel_run_ns").count(), 1);
            let per_worker = registry.labeled_counter("innet_parallel_packets_total", "worker");
            assert_eq!(per_worker.cells(), vec![("0".to_string(), 200)]);
            let tx = registry.labeled_counter("innet_parallel_transmitted_total", "worker");
            assert_eq!(tx.get("0"), stats.transmitted);
        }
    }

    #[test]
    fn zero_elapsed_stats_do_not_divide_by_zero() {
        let stats = ParallelStats {
            packets: 10,
            transmitted: 10,
            dropped: 0,
            elapsed_ns: 0,
            workers: 1,
        };
        assert_eq!(stats.pps(), 0.0);
        assert_eq!(stats.offered_pps(), 0.0);
        assert_eq!(stats.gbps(64), 0.0);
        assert_eq!(stats.offered_gbps(64), 0.0);
        let empty = ParallelStats {
            packets: 0,
            transmitted: 0,
            ..stats
        };
        assert!(empty.pps() == 0.0 && empty.offered_pps() == 0.0);
        assert!(empty.gbps(64) == 0.0 && empty.offered_gbps(64) == 0.0);
    }

    #[test]
    fn pps_reports_delivered_not_offered() {
        // 10 offered over 1 s, 4 delivered: pps() must report the 4
        // that made it through, offered_pps() the 10 that were pushed.
        let stats = ParallelStats {
            packets: 10,
            transmitted: 4,
            dropped: 0,
            elapsed_ns: 1_000_000_000,
            workers: 2,
        };
        assert_eq!(stats.pps(), 4.0);
        assert_eq!(stats.offered_pps(), 10.0);
        assert_eq!(stats.gbps(125), 4.0 * 125.0 * 8.0 / 1e9);
        assert_eq!(stats.offered_gbps(125), 10.0 * 125.0 * 8.0 / 1e9);
    }
}
