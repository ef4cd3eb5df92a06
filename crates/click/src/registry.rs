//! The element registry: class name → constructor, and the one table of
//! class facts.
//!
//! The registry is the boundary that makes static analysis possible: a
//! configuration is only instantiable if every class it names is registered,
//! and every registered class has an abstract model in `innet-symnet`.
//!
//! What a class *is* — a netfront entry or exit, stateless or keeping
//! per-flow or cross-flow state, queue-like or not — is written once, in
//! [`class_info`]'s table. Sharding, consolidation, lint and the symbolic
//! models all read it there.

use std::collections::BTreeMap;

use crate::{
    args::ConfigArgs,
    element::{Element, ElementError},
    elements::{self as el},
};

use crate::summary::{ElementSummary, SummaryCtor};

/// Which side of a module's boundary a netfront endpoint is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Netfront {
    /// It receives from outside the module (`FromNetfront`, `FromDevice`).
    Entry,
    /// It transmits outside the module (`ToNetfront`, `ToDevice`).
    Exit,
}

/// How an element's state interacts with flow-sharded replication — the
/// three-point lattice behind the parallel runner's worker-count verdict
/// and the consolidation rule.
///
/// The variants are ordered `Stateless < FlowPartitionable < Global`
/// (derived `Ord`), so a configuration's verdict is simply the `max`
/// over its elements: one `Global` element poisons the whole config,
/// one `FlowPartitionable` element upgrades dispatch from the directed
/// flow hash to the symmetric (connection-pinning) hash, and an
/// all-`Stateless` config shards freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Shardability {
    /// Forwarding is a pure function of the packet: replicas make
    /// identical per-packet decisions, so any flow-to-worker pinning
    /// keeps output order-identical to a single instance.
    Stateless,
    /// Forwarding depends on state keyed by the *connection* (the
    /// canonical 5-tuple): NAT translation tables, firewall connection
    /// tracking, per-flow meters. Replicas stay equivalent to a single
    /// instance as long as both directions of every connection are
    /// pinned to the same replica — which the symmetric dispatch hash
    /// guarantees — because then each replica owns a disjoint slice of
    /// the connection-state table.
    FlowPartitionable,
    /// Forwarding depends on state shared *across* connections (token
    /// buckets, queues, round-robin schedulers, opaque x86 VMs): no
    /// flow-to-worker pinning can keep replicas equivalent, and the
    /// runner degrades the configuration to a single worker.
    Global,
}

impl Shardability {
    /// Short display name (`stateless` / `flow` / `global`).
    pub fn name(self) -> &'static str {
        match self {
            Shardability::Stateless => "stateless",
            Shardability::FlowPartitionable => "flow",
            Shardability::Global => "global",
        }
    }
}

/// The facts about an element class that do not depend on its arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassInfo {
    /// The boundary side, for the netfront endpoint classes.
    pub netfront: Option<Netfront>,
    /// What cross-packet state its forwarding depends on.
    pub state: Shardability,
    /// Whether it breaks combinational cycles: it decouples input from
    /// output in time (queues, shapers).
    pub queue_like: bool,
}

const PURE: ClassInfo = ClassInfo {
    netfront: None,
    state: Shardability::Stateless,
    queue_like: false,
};
const ENTRY: ClassInfo = ClassInfo {
    netfront: Some(Netfront::Entry),
    ..PURE
};
const EXIT: ClassInfo = ClassInfo {
    netfront: Some(Netfront::Exit),
    ..PURE
};
/// Per-connection state (flow tables keyed by the 5-tuple).
const FLOW: ClassInfo = ClassInfo {
    state: Shardability::FlowPartitionable,
    ..PURE
};
/// State shared across connections: pattern pools, proxies, schedulers,
/// token buckets, seeded rngs and opaque black boxes.
const GLOBAL: ClassInfo = ClassInfo {
    state: Shardability::Global,
    ..PURE
};
/// Queue-like elements decouple input from output in time, which also
/// makes them global state: their emission schedule depends on every
/// packet they have absorbed so far, across all flows.
const QUEUE: ClassInfo = ClassInfo {
    queue_like: true,
    ..GLOBAL
};

/// Writes the class table once: as the `match` [`class_info`] looks
/// classes up in and, for the tests that pin it, as a list of rows.
macro_rules! class_table {
    ($($($class:literal)|+ => $info:expr,)*) => {
        /// The facts about `class`, or `None` for a class the standard
        /// library does not know. Neither allocates nor hashes.
        pub fn class_info(class: &str) -> Option<ClassInfo> {
            Some(match class {
                $($($class)|+ => $info,)*
                _ => return None,
            })
        }

        #[cfg(test)]
        const CLASSES: &[(&str, ClassInfo)] = &[$($(($class, $info)),+),*];
    };
}

// Every class with a constructor or a summary, once. Counters are
// stateless: replicating one shards its value, not its behaviour.
class_table! {
    "FromNetfront" | "FromDevice" => ENTRY,
    "ToNetfront" | "ToDevice" => EXIT,
    "DPI" | "FlowMeter" | "IPNAT" | "StatefulFirewall" => FLOW,
    "BandwidthShaper" | "Queue" | "RateLimiter" | "TimedUnqueue" => QUEUE,
    "ChangeEnforcer" | "IPRewriter" | "Meter" | "RandomSwitch" | "RoundRobinSwitch"
        | "TransparentProxy" => GLOBAL,
    "ServerS" | "StockDNSServer" | "StockExplicitProxy" | "StockReverseProxy"
        | "StockX86VM" => GLOBAL,
    "CheckIPHeader" | "CheckPaint" | "Classifier" | "Counter" | "DecIPTTL" | "Discard"
        | "EtherEncap" | "ICMPPingResponder" | "IPClassifier" | "IPDecap" | "IPEncap"
        | "IPFilter" | "IPMulticast" | "Idle" | "MarkIPHeader" | "Paint" | "SetIPDst"
        | "SetIPSrc" | "SetTOS" | "StaticIPLookup" | "Strip" | "Tee" | "UDPTunnelDecap"
        | "UDPTunnelEncap" => PURE,
}

type Ctor = fn(&ConfigArgs) -> Result<Box<dyn Element>, ElementError>;

/// A table of known element classes.
pub struct Registry {
    ctors: BTreeMap<&'static str, Ctor>,
    summaries: BTreeMap<&'static str, SummaryCtor>,
}

macro_rules! ctor {
    ($ty:ty, from_args) => {
        |args: &ConfigArgs| -> Result<Box<dyn Element>, ElementError> {
            Ok(Box::new(<$ty>::from_args(args)?))
        }
    };
    ($ty:ty, no_args) => {
        |args: &ConfigArgs| -> Result<Box<dyn Element>, ElementError> {
            args.expect_len(0)?;
            Ok(Box::new(<$ty>::default()))
        }
    };
}

impl Registry {
    /// An empty registry.
    pub fn empty() -> Registry {
        Registry {
            ctors: BTreeMap::new(),
            summaries: BTreeMap::new(),
        }
    }

    /// The standard In-Net element library.
    pub fn standard() -> Registry {
        let mut r = Registry::empty();

        // Sources, sinks.
        r.register("FromNetfront", ctor!(el::FromNetfront, from_args));
        r.register("ToNetfront", ctor!(el::ToNetfront, from_args));
        // Device aliases (Click configurations often use these names).
        r.register("FromDevice", ctor!(el::FromNetfront, from_args));
        r.register("ToDevice", ctor!(el::ToNetfront, from_args));
        r.register("Discard", ctor!(el::Discard, no_args));
        r.register("Idle", ctor!(el::Idle, no_args));

        // Classification and filtering.
        r.register("Classifier", ctor!(el::Classifier, from_args));
        r.register("IPClassifier", ctor!(el::IPClassifier, from_args));
        r.register("IPFilter", ctor!(el::IPFilter, from_args));

        // Header manipulation.
        r.register("CheckIPHeader", ctor!(el::CheckIPHeader, no_args));
        r.register("MarkIPHeader", ctor!(el::MarkIPHeader, from_args));
        r.register("DecIPTTL", ctor!(el::DecIPTTL, no_args));
        r.register("SetIPSrc", ctor!(el::SetIPSrc, from_args));
        r.register("SetIPDst", ctor!(el::SetIPDst, from_args));
        r.register("SetTOS", ctor!(el::SetTOS, from_args));
        r.register("Strip", ctor!(el::Strip, from_args));
        r.register("EtherEncap", ctor!(el::EtherEncap, from_args));

        // Measurement.
        r.register("Counter", ctor!(el::Counter, no_args));
        r.register("FlowMeter", ctor!(el::FlowMeter, no_args));

        // Shaping and queueing.
        r.register("RateLimiter", ctor!(el::RateLimiter, from_args));
        r.register("BandwidthShaper", ctor!(el::BandwidthShaper, from_args));
        r.register("Queue", ctor!(el::Queue, from_args));
        r.register("TimedUnqueue", ctor!(el::TimedUnqueue, from_args));

        // Stateful middleboxes.
        r.register("StatefulFirewall", ctor!(el::StatefulFirewall, from_args));
        r.register("IPNAT", ctor!(el::IpNat, from_args));
        r.register("IPRewriter", ctor!(el::IPRewriter, from_args));
        r.register("TransparentProxy", ctor!(el::TransparentProxy, from_args));

        // Tunnels.
        r.register("UDPTunnelEncap", ctor!(el::UdpTunnelEncap, from_args));
        r.register("UDPTunnelDecap", ctor!(el::UdpTunnelDecap, no_args));
        r.register("IPEncap", ctor!(el::IpEncap, from_args));
        r.register("IPDecap", ctor!(el::IpDecap, no_args));

        // Scheduling and annotations.
        r.register("RoundRobinSwitch", ctor!(el::RoundRobinSwitch, from_args));
        r.register("RandomSwitch", ctor!(el::RandomSwitch, from_args));
        r.register("Meter", ctor!(el::Meter, from_args));
        r.register("Paint", ctor!(el::Paint, from_args));
        r.register("CheckPaint", ctor!(el::CheckPaint, from_args));

        // Duplication, inspection, responders.
        r.register("Tee", ctor!(el::Tee, from_args));
        r.register("IPMulticast", ctor!(el::IpMulticast, from_args));
        r.register("DPI", ctor!(el::Dpi, from_args));
        r.register("ICMPPingResponder", ctor!(el::IcmpPingResponder, no_args));
        r.register("StaticIPLookup", ctor!(el::StaticIPLookup, from_args));

        // Sandboxing.
        r.register("ChangeEnforcer", ctor!(el::ChangeEnforcer, from_args));

        // Field-effect summaries for the static analyzer (covers every
        // class above plus the controller's Stock* pseudo-classes).
        crate::summary::register_standard(&mut r);

        r
    }

    /// Registers (or replaces) a class constructor.
    pub fn register(&mut self, class: &'static str, ctor: Ctor) {
        self.ctors.insert(class, ctor);
    }

    /// Registers (or replaces) a class field-effect summary.
    pub fn register_summary(&mut self, class: &'static str, ctor: SummaryCtor) {
        self.summaries.insert(class, ctor);
    }

    /// Whether a class has a field-effect summary (this includes the
    /// `Stock*` pseudo-classes, which have no Click constructor).
    pub fn has_summary(&self, class: &str) -> bool {
        self.summaries.contains_key(class)
    }

    /// Builds the field-effect summary of a configured element,
    /// validating its arguments the same way instantiation does.
    pub fn summary(&self, class: &str, args: &[String]) -> Result<ElementSummary, ElementError> {
        let Some(ctor) = self.summaries.get(class) else {
            return Err(ElementError::UnknownClass(class.to_string()));
        };
        ctor(args)
    }

    /// Whether a class is known.
    pub fn knows(&self, class: &str) -> bool {
        self.ctors.contains_key(class)
    }

    /// The configuration-level [`Shardability`] verdict: the lattice
    /// join (`max`) of every element's [`ClassInfo::state`].
    ///
    /// An element of an unknown class counts as [`Shardability::Global`]:
    /// an element we cannot model is an element we must not replicate.
    /// Arguments are not read; a config with bad ones gets its classes'
    /// verdict, and building its engine refuses it. Parallel runners use
    /// this verdict three ways — `Stateless` configs shard under the
    /// directed flow hash, `FlowPartitionable` configs shard under the
    /// symmetric (connection-pinning) hash, and `Global` configs degrade
    /// to a single worker rather than silently misbehave.
    pub fn config_shardability(&self, cfg: &crate::config::ClickConfig) -> Shardability {
        cfg.elements
            .iter()
            .map(|decl| class_info(&decl.class).map_or(Shardability::Global, |c| c.state))
            .max()
            .unwrap_or(Shardability::Stateless)
    }

    /// All registered class names, sorted.
    pub fn classes(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.ctors.keys().copied()
    }

    /// Instantiates an element.
    pub fn instantiate(
        &self,
        class: &str,
        args: &[String],
    ) -> Result<Box<dyn Element>, ElementError> {
        let Some((name, ctor)) = self.ctors.get_key_value(class) else {
            return Err(ElementError::UnknownClass(class.to_string()));
        };
        ctor(&ConfigArgs::new(name, args))
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("classes", &self.ctors.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_has_core_classes() {
        let r = Registry::standard();
        for class in [
            "FromNetfront",
            "ToNetfront",
            "IPFilter",
            "IPClassifier",
            "IPRewriter",
            "TimedUnqueue",
            "StatefulFirewall",
            "IPNAT",
            "ChangeEnforcer",
            "DPI",
            "StaticIPLookup",
        ] {
            assert!(r.knows(class), "{class} missing");
        }
        assert!(!r.knows("FluxCapacitor"));
    }

    #[test]
    fn instantiate_unknown_fails() {
        let r = Registry::standard();
        assert!(matches!(
            r.instantiate("Nope", &[]),
            Err(ElementError::UnknownClass(_))
        ));
    }

    #[test]
    fn instantiate_all_defaults() {
        // Every no-arg class instantiates without arguments.
        let r = Registry::standard();
        for class in [
            "Discard",
            "Idle",
            "CheckIPHeader",
            "DecIPTTL",
            "Counter",
            "FlowMeter",
            "UDPTunnelDecap",
            "IPDecap",
            "ICMPPingResponder",
        ] {
            assert!(r.instantiate(class, &[]).is_ok(), "{class}");
        }
    }

    #[test]
    fn no_arg_classes_reject_args() {
        let r = Registry::standard();
        assert!(r.instantiate("Discard", &["x".to_string()]).is_err());
    }

    #[test]
    fn config_shardability_verdicts() {
        use crate::config::ClickConfig;
        let r = Registry::standard();
        let stateless = ClickConfig::parse(
            "FromNetfront() -> IPFilter(allow udp) -> Counter() -> ToNetfront();",
        )
        .unwrap();
        assert_eq!(r.config_shardability(&stateless), Shardability::Stateless);

        // Per-connection state shards under symmetric dispatch; the
        // verdict is the join, so one NAT upgrades a stateless pipeline.
        let nat = ClickConfig::parse("FromNetfront() -> IPNAT(5.5.5.5) -> ToNetfront();").unwrap();
        assert_eq!(r.config_shardability(&nat), Shardability::FlowPartitionable);

        // A queue decouples timing from arrival across all flows: not
        // shardable at all.
        let queued = ClickConfig::parse("FromNetfront() -> Queue(16) -> ToNetfront();").unwrap();
        assert_eq!(r.config_shardability(&queued), Shardability::Global);

        // A Global element poisons an otherwise flow-partitionable
        // config.
        let mixed =
            ClickConfig::parse("FromNetfront() -> IPNAT(5.5.5.5) -> Queue(16) -> ToNetfront();")
                .unwrap();
        assert_eq!(r.config_shardability(&mixed), Shardability::Global);

        // A class nobody can model must not be replicated.
        let unknown =
            ClickConfig::parse("FromNetfront() -> FluxCapacitor() -> ToNetfront();").unwrap();
        assert_eq!(r.config_shardability(&unknown), Shardability::Global);
    }

    #[test]
    fn class_table_covers_every_class() {
        // Every constructor and every summary-only stock class has a row,
        // and the table has no row for a class nobody can build.
        let r = Registry::standard();
        let stock = [
            "StockX86VM",
            "StockExplicitProxy",
            "StockDNSServer",
            "StockReverseProxy",
            "ServerS",
        ];
        let mut known: Vec<&str> = r.classes().chain(stock).collect();
        known.sort_unstable();
        let mut rows: Vec<&str> = CLASSES.iter().map(|(c, _)| *c).collect();
        rows.sort_unstable();
        assert_eq!(rows, known, "one row per class");
        for class in known {
            assert!(class_info(class).is_some(), "{class}");
            assert!(r.has_summary(class), "{class}");
        }
        assert_eq!(class_info("FluxCapacitor"), None);
        assert_eq!(class_info(""), None);
    }

    #[test]
    fn netfront_classes() {
        for (class, side) in [
            ("FromNetfront", Netfront::Entry),
            ("FromDevice", Netfront::Entry),
            ("ToNetfront", Netfront::Exit),
            ("ToDevice", Netfront::Exit),
        ] {
            assert_eq!(class_info(class).unwrap().netfront, Some(side), "{class}");
        }
        let others = CLASSES.iter().filter(|(_, c)| c.netfront.is_some());
        assert_eq!(others.count(), 4);
    }

    #[test]
    fn queue_classes_are_cycle_breaking() {
        let mut queues: Vec<&str> = CLASSES
            .iter()
            .filter(|(_, c)| c.queue_like)
            .map(|(class, _)| *class)
            .collect();
        queues.sort_unstable();
        assert_eq!(
            queues,
            ["BandwidthShaper", "Queue", "RateLimiter", "TimedUnqueue"]
        );
        assert!(!class_info("Counter").unwrap().queue_like);
    }

    #[test]
    fn shardability_classification() {
        let state = |class| class_info(class).unwrap().state;
        // Per-connection state (flow tables keyed by the 5-tuple):
        // shardable once both directions pin to one worker.
        for class in ["StatefulFirewall", "IPNAT", "FlowMeter", "DPI"] {
            assert_eq!(state(class), Shardability::FlowPartitionable, "{class}");
        }
        // Cross-connection state (token buckets, schedulers, buffers,
        // black boxes): never shardable.
        for class in [
            "IPRewriter",
            "TransparentProxy",
            "ChangeEnforcer",
            "Queue",
            "TimedUnqueue",
            "RateLimiter",
            "BandwidthShaper",
            "RoundRobinSwitch",
            "RandomSwitch",
            "Meter",
            "StockX86VM",
            "StockExplicitProxy",
            "StockDNSServer",
            "StockReverseProxy",
            "ServerS",
        ] {
            assert_eq!(state(class), Shardability::Global, "{class}");
        }
        // Pure functions of the packet replicate safely under any
        // dispatch discipline: every other row.
        let stateless = CLASSES
            .iter()
            .filter(|(_, c)| c.state == Shardability::Stateless);
        assert_eq!(stateless.count(), CLASSES.len() - 4 - 15);
        for class in [
            "Counter",
            "CheckIPHeader",
            "DecIPTTL",
            "IPFilter",
            "SetIPSrc",
            "Tee",
            "FromNetfront",
            "ToNetfront",
            "Discard",
        ] {
            assert_eq!(state(class), Shardability::Stateless, "{class}");
        }
    }

    #[test]
    fn shardability_lattice_order() {
        use Shardability::*;
        // The config verdict is a lattice join (max): these orderings
        // are what `Registry::config_shardability` relies on.
        assert!(Stateless < FlowPartitionable);
        assert!(FlowPartitionable < Global);
        assert_eq!(Stateless.max(FlowPartitionable), FlowPartitionable);
        assert_eq!(FlowPartitionable.max(Global), Global);
        assert_eq!(Stateless.name(), "stateless");
        assert_eq!(FlowPartitionable.name(), "flow");
        assert_eq!(Global.name(), "global");
    }

    #[test]
    fn class_count_is_substantial() {
        // The paper's claim rests on a broad library of known elements.
        assert!(Registry::standard().classes().count() >= 35);
    }
}
