//! The runner: one verified configuration executed at full speed, in the
//! calling thread or flow-sharded across N router replicas behind an
//! RSS-style dispatcher.
//!
//! The paper's platform runs each tenant module as one ClickOS VM on one
//! vCPU; scaling a hot module means giving it more cores. With **one
//! effective worker** that is what a run is: one engine driven in the
//! calling thread, batch by batch, with no thread spawned, no ring and
//! no dispatcher hash. From **two workers up** this module reproduces
//! the standard software-RSS recipe for adding cores without giving up
//! per-flow semantics:
//!
//! * every worker owns an *independent replica* of the same verified
//!   [`ClickConfig`] — no shared element state, no locks on the data path;
//! * a flow-hash dispatcher pins each 5-tuple to one worker
//!   ([`FlowKey::shard_of`]), so all packets of a flow traverse the same
//!   replica in arrival order and per-flow output order is preserved;
//! * hand-off happens in batches over bounded FIFO rings (`std`'s
//!   `sync_channel`), which back-pressure the dispatcher when a worker
//!   falls behind.
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
//!   dispatch switches to the *symmetric* hash
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

use std::sync::mpsc::{sync_channel, SyncSender};
use std::time::Instant;

use innet_click::{ClickConfig, Registry, RouterError, Shardability};
use innet_packet::{FlowKey, Packet, PacketPool};

use crate::engine::Engine;
use crate::runner::RunnerConfig;

/// Virtual-time step per packet: 1 µs, so token buckets refill
/// realistically.
const STEP_NS: u64 = 1_000;

/// Per-worker ring capacity, counted in *batches*.
const RING_CAPACITY: usize = 1024;

/// Result of a timed run.
#[derive(Debug, Clone, Copy)]
pub struct ParallelStats {
    /// Packets offered to the runner.
    pub packets: u64,
    /// Packets transmitted out of all replicas.
    pub transmitted: u64,
    /// Packets the dispatcher could not hand to a worker because the
    /// worker had hung up (rings are lossless, so a full ring never
    /// drops; always 0 in a one-worker run, which has no ring).
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

/// Shared-registry instruments for one runner (`innet_parallel_*`).
#[derive(Clone)]
struct ParallelMetrics {
    /// Per-worker packets processed (`worker` label).
    packets: Vec<innet_obs::Counter>,
    /// Per-worker packets transmitted (`worker` label).
    transmitted: Vec<innet_obs::Counter>,
    /// Size of each dispatched batch.
    batch_size: innet_obs::Histogram,
    /// Wall-clock duration of each `run` call.
    run_ns: innet_obs::Histogram,
}

impl ParallelMetrics {
    fn new(registry: &innet_obs::Registry, workers: usize) -> ParallelMetrics {
        let packets = registry.labeled_counter("innet_parallel_packets_total", "worker");
        let transmitted = registry.labeled_counter("innet_parallel_transmitted_total", "worker");
        ParallelMetrics {
            packets: (0..workers).map(|w| packets.with(&w.to_string())).collect(),
            transmitted: (0..workers)
                .map(|w| transmitted.with(&w.to_string()))
                .collect(),
            batch_size: registry.histogram("innet_parallel_batch_size"),
            run_ns: registry.histogram("innet_parallel_run_ns"),
        }
    }
}

/// The runner: N replicas of one router. One replica runs in the calling
/// thread; two or more run on worker threads behind a flow-hash
/// dispatcher. Build one with
/// [`RunnerConfig::parallel`](crate::RunnerConfig::parallel).
pub struct ParallelRunner {
    engines: Vec<Engine>,
    requested_workers: usize,
    shardability: Shardability,
    batch: usize,
    metrics: Option<ParallelMetrics>,
    /// Buffer pool of the one-worker path: round inputs are copies of
    /// the caller's packet set, and in non-collecting runs the
    /// transmitted buffers recycle straight back into the next round's
    /// copies.
    pool: PacketPool,
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
        let mut engines = Vec::with_capacity(effective);
        for _ in 0..effective {
            let mut engine = Engine::build(cfg, &registry, config.compiled)?;
            if let Some(reg) = &config.metrics {
                // Replicas share the same click counters: the registry
                // hands out one shared cell per name, so `innet_click_*`
                // aggregates across workers.
                engine.attach_metrics(reg);
            }
            engines.push(engine);
        }
        Ok(ParallelRunner {
            engines,
            requested_workers: config.workers,
            shardability,
            batch: config.batch,
            metrics: config
                .metrics
                .as_ref()
                .map(|r| ParallelMetrics::new(r, effective)),
            pool: PacketPool::new(),
        })
    }

    /// Workers actually running (1 when the configuration keeps global
    /// state).
    pub fn effective_workers(&self) -> usize {
        self.engines.len()
    }

    /// Workers asked for via [`RunnerConfig::workers`].
    pub fn requested_workers(&self) -> usize {
        self.requested_workers
    }

    /// The registry's [`Shardability`] verdict for this configuration
    /// ([`Registry::config_shardability`]): it decides both the worker
    /// count and the dispatch hash.
    pub fn shardability(&self) -> Shardability {
        self.shardability
    }

    /// Whether the configuration passed the registry's replication-safety
    /// check (its verdict is not [`Shardability::Global`]).
    pub fn shardable(&self) -> bool {
        self.shardability != Shardability::Global
    }

    /// Whether the replicas execute the compiled plan.
    pub fn is_compiled(&self) -> bool {
        self.engines.first().is_some_and(|e| e.is_compiled())
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
    /// order — the reference output the sharded path's differential
    /// tests compare against. With more, the pairs are concatenated
    /// worker by worker: within one worker's slice — and therefore
    /// within any one flow — packets appear in transmission order.
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
        // Below two effective workers there is nothing to dispatch to.
        let (transmitted, dropped, collected) = if self.engines.len() == 1 {
            let (transmitted, collected) = self.run_in_thread(packets, rounds, collect);
            (transmitted, 0, collected)
        } else {
            self.run_sharded(packets, rounds, collect)
        };
        let stats = ParallelStats {
            packets: (packets.len() * rounds) as u64,
            transmitted,
            dropped,
            elapsed_ns: start.elapsed().as_nanos().max(1) as u64,
            workers: self.engines.len(),
        };
        if let Some(m) = &self.metrics {
            m.run_ns.observe(stats.elapsed_ns);
        }
        (stats, collected)
    }

    /// The one-worker path: the single replica driven in the calling
    /// thread, the way one ClickOS VM pins its Click thread to one vCPU.
    /// Returns `(transmitted, collected)`; without a ring nothing drops.
    fn run_in_thread(
        &mut self,
        packets: &[Packet],
        rounds: usize,
        collect: bool,
    ) -> (u64, Vec<(u16, Packet)>) {
        let engine = &mut self.engines[0];
        let mut now_ns = 0u64;
        let mut transmitted = 0u64;
        let mut out: Vec<(u16, Packet)> = Vec::new();
        for _ in 0..rounds {
            for chunk in packets.chunks(self.batch) {
                let copies: Vec<Packet> = chunk.iter().map(|p| self.pool.copy_of(p)).collect();
                engine.push_batch(copies, now_ns, STEP_NS);
                now_ns += STEP_NS * chunk.len() as u64;
                let before = out.len();
                engine.take_tx_into(&mut out);
                transmitted += (out.len() - before) as u64;
                if !collect {
                    for (_, pkt) in out.drain(..) {
                        self.pool.recycle(pkt);
                    }
                }
            }
        }
        if let Some(m) = &self.metrics {
            m.packets[0].add((packets.len() * rounds) as u64);
            m.transmitted[0].add(transmitted);
        }
        (transmitted, out)
    }

    /// The sharded path: one thread per replica behind the flow-hash
    /// dispatcher. Returns `(transmitted, dropped, collected)`.
    fn run_sharded(
        &mut self,
        packets: &[Packet],
        rounds: usize,
        collect: bool,
    ) -> (u64, u64, Vec<(u16, Packet)>) {
        let workers = self.engines.len();
        let batch = self.batch;
        let metrics = self.metrics.clone();
        let mut dropped = 0u64;
        let mut transmitted = 0u64;
        let mut collected: Vec<(u16, Packet)> = Vec::new();

        std::thread::scope(|s| {
            let mut senders = Vec::with_capacity(workers);
            let mut handles = Vec::with_capacity(workers);
            for (w, engine) in self.engines.iter_mut().enumerate() {
                let (tx, rx) = sync_channel::<Vec<Packet>>(RING_CAPACITY);
                senders.push(tx);
                let worker_metrics = metrics
                    .as_ref()
                    .map(|m| (m.packets[w].clone(), m.transmitted[w].clone()));
                handles.push(s.spawn(move || {
                    let mut clock = 0u64;
                    let mut tx_count = 0u64;
                    let mut out: Vec<(u16, Packet)> = Vec::new();
                    while let Ok(b) = rx.recv() {
                        let n = b.len() as u64;
                        engine.push_batch(b, clock, STEP_NS);
                        clock += STEP_NS * n;
                        let before = out.len();
                        engine.take_tx_into(&mut out);
                        let emitted = (out.len() - before) as u64;
                        tx_count += emitted;
                        if let Some((pkts, txs)) = &worker_metrics {
                            pkts.add(n);
                            txs.add(emitted);
                        }
                        if !collect {
                            out.clear();
                        }
                    }
                    (tx_count, out)
                }));
            }

            // The dispatcher: flow-hash every packet to its worker,
            // flushing per-worker batches as they fill. Because one flow
            // always hashes to one worker and the rings are FIFO,
            // per-flow order is preserved end to end.
            //
            // Flow-partitionable configs (NAT, stateful firewall) carry
            // per-connection state, so both directions of a connection
            // must land on the same replica: they dispatch under the
            // symmetric hash, which keys on the remote endpoint and is
            // invariant under source NAT. Stateless configs keep the
            // plain directed hash.
            let symmetric = self.shardability == Shardability::FlowPartitionable;
            let mut pending: Vec<Vec<Packet>> =
                (0..workers).map(|_| Vec::with_capacity(batch)).collect();
            for _ in 0..rounds {
                for pkt in packets {
                    let shard = if symmetric {
                        FlowKey::symmetric_shard_of(pkt, workers)
                    } else {
                        FlowKey::shard_of(pkt, workers)
                    };
                    pending[shard].push(pkt.clone());
                    if pending[shard].len() >= batch {
                        let full =
                            std::mem::replace(&mut pending[shard], Vec::with_capacity(batch));
                        dropped += dispatch(&senders[shard], full, &metrics);
                    }
                }
            }
            for (shard, rest) in pending.into_iter().enumerate() {
                if !rest.is_empty() {
                    dropped += dispatch(&senders[shard], rest, &metrics);
                }
            }
            // Hang up: each worker drains its ring, then returns.
            drop(senders);
            for h in handles {
                let (tx_count, out) = h.join().expect("worker panicked");
                transmitted += tx_count;
                if collect {
                    collected.extend(out);
                }
            }
        });
        (transmitted, dropped, collected)
    }
}

/// Sends one batch to one worker ring, blocking while it is full.
/// Returns the number of packets lost because the worker hung up.
fn dispatch(
    sender: &SyncSender<Vec<Packet>>,
    batch: Vec<Packet>,
    metrics: &Option<ParallelMetrics>,
) -> u64 {
    let size = batch.len() as u64;
    let dropped = match sender.send(batch) {
        Ok(()) => 0,
        Err(b) => b.0.len() as u64,
    };
    if let Some(m) = metrics {
        m.batch_size.observe(size);
    }
    dropped
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
        assert!(runner.shardable());
        assert_eq!(runner.effective_workers(), 4);
        assert_eq!(runner.requested_workers(), 4);
    }

    #[test]
    fn flow_partitionable_config_shards_under_symmetric_hash() {
        // NAT keeps per-connection state only: it shards, and the
        // verdict selects the symmetric dispatch hash.
        let cfg = middlebox_config("nat").unwrap();
        let runner = RunnerConfig::new().workers(8).parallel(&cfg).unwrap();
        assert!(runner.shardable());
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
        assert!(!runner.shardable());
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
        assert!(runner.shardable());
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
        // Every ring send is observed: the instruments the one-worker
        // test requires to stay empty do fill here.
        assert!(registry.histogram("innet_parallel_batch_size").count() >= 25);
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
        // Below two effective workers there is no dispatcher: the
        // dispatch instrument (batch-size histogram) is only ever
        // touched by a ring send, so it stays empty —
        // whether one worker was asked for or a Global config degraded
        // to one.
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
            assert_eq!(registry.histogram("innet_parallel_batch_size").count(), 0);
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
            dropped: 6,
            elapsed_ns: 1_000_000_000,
            workers: 2,
        };
        assert_eq!(stats.pps(), 4.0);
        assert_eq!(stats.offered_pps(), 10.0);
        assert_eq!(stats.gbps(125), 4.0 * 125.0 * 8.0 / 1e9);
        assert_eq!(stats.offered_gbps(125), 10.0 * 125.0 * 8.0 / 1e9);
    }
}
