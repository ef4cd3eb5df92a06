//! The element library: one table with a row per class, and the
//! [`Registry`] that reads it.
//!
//! The library is the boundary that makes static analysis possible: a
//! configuration is only instantiable if every class it names has a row,
//! and every row has an abstract model in `innet-symnet`.
//!
//! Each row is written once, in `class_table!`: the class name, what the
//! class *is* ([`ClassInfo`]: a netfront entry or exit, stateless or
//! keeping per-flow or cross-flow state, queue-like or not), its
//! constructor (none for the controller's `Stock*`/`ServerS`
//! pseudo-classes) and its field-effect summary. Sharding, consolidation,
//! lint and the symbolic models all read it there.

use crate::{
    args::ConfigArgs,
    element::{Element, ElementError},
    elements as el,
    summary::{self as s, any_output_summary, identity_summary, ElementSummary, SummaryCtor},
};

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

type Ctor = fn(&ConfigArgs) -> Result<Box<dyn Element>, ElementError>;

macro_rules! ctor {
    ($ty:ty, from_args) => {
        Some(
            |args: &ConfigArgs| -> Result<Box<dyn Element>, ElementError> {
                Ok(Box::new(<$ty>::from_args(args)?))
            },
        )
    };
    ($ty:ty, no_args) => {
        Some(
            |args: &ConfigArgs| -> Result<Box<dyn Element>, ElementError> {
                args.expect_len(0)?;
                Ok(Box::new(<$ty>::default()))
            },
        )
    };
}

/// One class of the library.
struct Class {
    name: &'static str,
    /// `None` for the pseudo-classes the controller materialises itself.
    ctor: Option<Ctor>,
    summary: SummaryCtor,
}

/// Writes the class table once: as the `match` [`class_info`] looks
/// classes up in, and as [`CLASSES`], which the [`Registry`] searches.
macro_rules! class_table {
    ($($class:literal => $info:expr, $ctor:expr, $summary:expr;)*) => {
        /// The facts about `class`, or `None` for a class the standard
        /// library does not know. Neither allocates nor hashes.
        pub fn class_info(class: &str) -> Option<ClassInfo> {
            Some(match class {
                $($class => $info,)*
                _ => return None,
            })
        }

        /// Every class, sorted by name.
        const CLASSES: &[Class] = &[$(Class {
            name: $class,
            ctor: $ctor,
            summary: $summary,
        }),*];
    };
}

// Every class, once, sorted by name: its facts, its constructor and its
// summary. `FromDevice`/`ToDevice` are the Click names of the netfront
// endpoints. Counters are stateless: replicating one shards its value,
// not its behaviour.
class_table! {
    "BandwidthShaper" => QUEUE, ctor!(el::BandwidthShaper, from_args),
        identity_summary!(el::BandwidthShaper);
    "ChangeEnforcer" => GLOBAL, ctor!(el::ChangeEnforcer, from_args), s::change_enforcer;
    "CheckIPHeader" => PURE, ctor!(el::CheckIPHeader, no_args), identity_summary!(no_args);
    "CheckPaint" => PURE, ctor!(el::CheckPaint, from_args), any_output_summary!(el::CheckPaint);
    "Classifier" => PURE, ctor!(el::Classifier, from_args), any_output_summary!(el::Classifier);
    "Counter" => PURE, ctor!(el::Counter, no_args), identity_summary!(no_args);
    "DPI" => FLOW, ctor!(el::Dpi, from_args), any_output_summary!(el::Dpi);
    "DecIPTTL" => PURE, ctor!(el::DecIPTTL, no_args), s::dec_ip_ttl;
    "Discard" => PURE, ctor!(el::Discard, no_args), s::discard_sink;
    "EtherEncap" => PURE, ctor!(el::EtherEncap, from_args), identity_summary!(el::EtherEncap);
    "FlowMeter" => FLOW, ctor!(el::FlowMeter, no_args), identity_summary!(no_args);
    "FromDevice" => ENTRY, ctor!(el::FromNetfront, from_args), s::from_netfront;
    "FromNetfront" => ENTRY, ctor!(el::FromNetfront, from_args), s::from_netfront;
    "ICMPPingResponder" => PURE, ctor!(el::IcmpPingResponder, no_args), s::ping_responder;
    "IPClassifier" => PURE, ctor!(el::IPClassifier, from_args), s::ip_classifier;
    "IPDecap" => PURE, ctor!(el::IpDecap, no_args), s::ip_decap;
    "IPEncap" => PURE, ctor!(el::IpEncap, from_args), s::ip_encap;
    "IPFilter" => PURE, ctor!(el::IPFilter, from_args), s::ip_filter;
    "IPMulticast" => PURE, ctor!(el::IpMulticast, from_args), s::multicast;
    "IPNAT" => FLOW, ctor!(el::IpNat, from_args), s::nat;
    "IPRewriter" => GLOBAL, ctor!(el::IPRewriter, from_args), s::rewriter;
    "Idle" => PURE, ctor!(el::Idle, no_args), s::idle_sink;
    "MarkIPHeader" => PURE, ctor!(el::MarkIPHeader, from_args), identity_summary!(el::MarkIPHeader);
    "Meter" => GLOBAL, ctor!(el::Meter, from_args), any_output_summary!(el::Meter);
    "Paint" => PURE, ctor!(el::Paint, from_args), identity_summary!(el::Paint);
    "Queue" => QUEUE, ctor!(el::Queue, from_args), identity_summary!(el::Queue);
    "RandomSwitch" => GLOBAL, ctor!(el::RandomSwitch, from_args),
        any_output_summary!(el::RandomSwitch);
    "RateLimiter" => QUEUE, ctor!(el::RateLimiter, from_args), identity_summary!(el::RateLimiter);
    "RoundRobinSwitch" => GLOBAL, ctor!(el::RoundRobinSwitch, from_args),
        any_output_summary!(el::RoundRobinSwitch);
    "ServerS" => GLOBAL, None, s::server_s;
    "SetIPDst" => PURE, ctor!(el::SetIPDst, from_args), s::set_ip_dst;
    "SetIPSrc" => PURE, ctor!(el::SetIPSrc, from_args), s::set_ip_src;
    "SetTOS" => PURE, ctor!(el::SetTOS, from_args), s::set_tos;
    "StatefulFirewall" => FLOW, ctor!(el::StatefulFirewall, from_args), s::firewall;
    "StaticIPLookup" => PURE, ctor!(el::StaticIPLookup, from_args), s::static_lookup;
    "StockDNSServer" => GLOBAL, None, s::stock_dns;
    "StockExplicitProxy" => GLOBAL, None, s::stock_explicit_proxy;
    "StockReverseProxy" => GLOBAL, None, s::stock_reverse_proxy;
    "StockX86VM" => GLOBAL, None, s::stock_x86_vm;
    "Strip" => PURE, ctor!(el::Strip, from_args), identity_summary!(el::Strip);
    "Tee" => PURE, ctor!(el::Tee, from_args), any_output_summary!(el::Tee);
    "TimedUnqueue" => QUEUE, ctor!(el::TimedUnqueue, from_args),
        identity_summary!(el::TimedUnqueue);
    "ToDevice" => EXIT, ctor!(el::ToNetfront, from_args), s::to_netfront;
    "ToNetfront" => EXIT, ctor!(el::ToNetfront, from_args), s::to_netfront;
    "TransparentProxy" => GLOBAL, ctor!(el::TransparentProxy, from_args), s::transparent_proxy;
    "UDPTunnelDecap" => PURE, ctor!(el::UdpTunnelDecap, no_args), s::udp_tunnel_decap;
    "UDPTunnelEncap" => PURE, ctor!(el::UdpTunnelEncap, from_args), s::udp_tunnel_encap;
}

/// The row of `class`.
fn row(class: &str) -> Option<&'static Class> {
    let i = CLASSES.binary_search_by(|c| c.name.cmp(class)).ok()?;
    Some(&CLASSES[i])
}

/// The standard In-Net element library, read from the class table.
#[derive(Debug, Default)]
pub struct Registry;

impl Registry {
    /// The standard In-Net element library.
    pub fn standard() -> Registry {
        Registry
    }

    /// Whether a class has a field-effect summary (this includes the
    /// `Stock*` pseudo-classes, which have no Click constructor).
    pub fn has_summary(&self, class: &str) -> bool {
        row(class).is_some()
    }

    /// Builds the field-effect summary of a configured element,
    /// validating its arguments the same way instantiation does.
    pub fn summary(&self, class: &str, args: &[String]) -> Result<ElementSummary, ElementError> {
        let Some(c) = row(class) else {
            return Err(ElementError::UnknownClass(class.to_string()));
        };
        (c.summary)(&ConfigArgs::new(c.name, args))
    }

    /// Whether a class can be instantiated: it has a row with a
    /// constructor.
    pub fn knows(&self, class: &str) -> bool {
        row(class).is_some_and(|c| c.ctor.is_some())
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

    /// The names of every class with a constructor, sorted.
    pub fn classes(&self) -> impl Iterator<Item = &'static str> + '_ {
        CLASSES.iter().filter(|c| c.ctor.is_some()).map(|c| c.name)
    }

    /// Instantiates an element.
    pub fn instantiate(
        &self,
        class: &str,
        args: &[String],
    ) -> Result<Box<dyn Element>, ElementError> {
        match row(class) {
            Some(&Class {
                name,
                ctor: Some(ctor),
                ..
            }) => ctor(&ConfigArgs::new(name, args)),
            _ => Err(ElementError::UnknownClass(class.to_string())),
        }
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

    /// Every row with its facts.
    fn rows() -> impl Iterator<Item = (&'static str, ClassInfo)> {
        CLASSES
            .iter()
            .map(|c| (c.name, class_info(c.name).unwrap()))
    }

    #[test]
    fn class_table_covers_every_class() {
        // One row per class, sorted by name (the registry binary-searches
        // the table), and only the controller's pseudo-classes lack a
        // constructor.
        for pair in CLASSES.windows(2) {
            assert!(
                pair[0].name < pair[1].name,
                "{} >= {}",
                pair[0].name,
                pair[1].name
            );
        }
        assert_eq!(CLASSES.len(), 47);
        let r = Registry::standard();
        let mut stock: Vec<&str> = CLASSES
            .iter()
            .map(|c| c.name)
            .filter(|c| !r.knows(c))
            .collect();
        stock.sort_unstable();
        assert_eq!(
            stock,
            [
                "ServerS",
                "StockDNSServer",
                "StockExplicitProxy",
                "StockReverseProxy",
                "StockX86VM"
            ]
        );
        assert_eq!(r.classes().count(), CLASSES.len() - stock.len());
        for c in CLASSES {
            assert!(class_info(c.name).is_some(), "{}", c.name);
            assert!(r.has_summary(c.name), "{}", c.name);
        }
        for unknown in ["FluxCapacitor", "", "fromnetfront"] {
            assert_eq!(class_info(unknown), None);
            assert!(!r.knows(unknown) && !r.has_summary(unknown));
            assert!(matches!(
                r.summary(unknown, &[]),
                Err(ElementError::UnknownClass(_))
            ));
        }
        assert!(matches!(
            r.instantiate("StockX86VM", &[]),
            Err(ElementError::UnknownClass(_))
        ));
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
        let others = rows().filter(|(_, c)| c.netfront.is_some());
        assert_eq!(others.count(), 4);
    }

    #[test]
    fn queue_classes_are_cycle_breaking() {
        let mut queues: Vec<&str> = rows()
            .filter(|(_, c)| c.queue_like)
            .map(|(class, _)| class)
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
        let stateless = rows().filter(|(_, c)| c.state == Shardability::Stateless);
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
