//! The controller's state: client accounts, the installed-module table,
//! the verification memos and their invalidation, commit and `kill`.
//! Admission itself lives in `admission.rs`, the table and its placement
//! views in `modules.rs`, statistics in `stats.rs`.

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::{Arc, OnceLock};

use innet_analysis::LintReport;
use innet_click::Registry;
use innet_policy::Requirement;
use innet_symnet::{Memo, ModelCache, RequesterClass, SecurityReport, SymError};
use innet_topology::{NodeId, NodeKind, Topology};

use crate::{
    cache::CachedVerdict,
    hardening::HardeningPolicy,
    modules::ModuleTable,
    netmodel::{InstalledModule, NetworkModel},
    placement::PlacementContext,
    request::ClientRequest,
    sandbox::wrap_with_enforcer,
    stats::{ControllerStats, Ledger},
    verify::VerifyError,
};

/// Identifier of an installed module.
pub type ModuleId = u64;

/// Offset of the first address handed out of a platform's pool.
const FIRST_HOST: u64 = 10;

/// A registered tenant.
#[derive(Debug, Clone)]
pub struct ClientAccount {
    /// Requester class (drives the security rules).
    pub class: RequesterClass,
    /// Addresses the tenant has registered with the operator (the
    /// explicit-authorization white-list of §2.1).
    pub registered: Vec<Ipv4Addr>,
}

/// A vswitch steering rule the controller installs when committing a
/// module (the OpenFlow rules of §4.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowRule {
    /// Platform the rule is installed on.
    pub platform: String,
    /// Destination address to match.
    pub dst: Ipv4Addr,
    /// Module receiving the traffic.
    pub module: ModuleId,
}

/// Why a deployment failed.
#[derive(Debug, Clone)]
pub enum DeployError {
    /// The client id is not registered.
    UnknownClient(String),
    /// The configuration could not be modeled (unknown element class or
    /// malformed arguments) — per §4.1 such requests are refused.
    BadConfig(SymError),
    /// The lint pass found structural errors (wiring mistakes, dead
    /// outputs, queueless cycles, …) — refused before any verification,
    /// with the precise rule ids.
    Lint(innet_analysis::LintReport),
    /// The module provably violates the security rules. The report is
    /// shared (`Arc`): the same rejection is also memoized in the verdict
    /// cache, and a deep copy of its symbolic egress flows per request
    /// would dominate the admission path's constant costs.
    SecurityReject(Arc<SecurityReport>),
    /// No platform satisfies both the operator's policy and the client's
    /// requirements.
    NoFeasiblePlacement {
        /// Per-platform explanation of why it was rejected.
        reasons: Vec<(String, String)>,
    },
    /// A requirement referenced an unknown node.
    Verify(VerifyError),
    /// No such module (for `kill`).
    NoSuchModule(ModuleId),
}

impl std::fmt::Display for DeployError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeployError::UnknownClient(c) => write!(f, "unknown client '{c}'"),
            DeployError::BadConfig(e) => write!(f, "unmodellable configuration: {e}"),
            DeployError::Lint(report) => write!(f, "configuration failed lint: {report}"),
            DeployError::SecurityReject(r) => {
                write!(f, "security violation: {:?}", r.violations)
            }
            DeployError::NoFeasiblePlacement { reasons } => {
                write!(f, "no feasible placement: {reasons:?}")
            }
            DeployError::Verify(e) => write!(f, "{e}"),
            DeployError::NoSuchModule(id) => write!(f, "no module {id}"),
        }
    }
}

impl std::error::Error for DeployError {}

impl From<VerifyError> for DeployError {
    fn from(e: VerifyError) -> Self {
        DeployError::Verify(e)
    }
}

/// The controller's answer to a successful deployment (§4.3: the client
/// is given an address it can be reached at, and a module id for `kill`).
#[derive(Debug, Clone)]
pub struct DeployResponse {
    /// Handle for `kill`.
    pub module_id: ModuleId,
    /// The module's name.
    pub module_name: String,
    /// The address assigned to the module.
    pub public_addr: Ipv4Addr,
    /// Name of the hosting platform.
    pub platform: String,
    /// Whether a sandbox was injected.
    pub sandboxed: bool,
    /// Nanoseconds spent compiling network models for this request.
    pub compile_ns: u64,
    /// Nanoseconds spent checking (security + policy + requirements).
    pub check_ns: u64,
}

/// The In-Net controller.
pub struct Controller {
    pub(crate) topology: Topology,
    pub(crate) registry: Registry,
    pub(crate) operator_policy: Vec<Requirement>,
    pub(crate) clients: HashMap<String, ClientAccount>,
    /// The installed modules and the placement views kept over them
    /// (used slots, live addresses, preference order). The flow rules are
    /// derived from it: one per module.
    pub(crate) table: ModuleTable,
    pub(crate) next_id: ModuleId,
    /// Per topology node, where on its address pool the search for a free
    /// address starts; see [`Controller::free_addr`].
    addr_cursor: Vec<u64>,
    pub(crate) hardening: HardeningPolicy,
    /// Whether the security check may walk memoized chain summaries
    /// (`check_module_summarized`) instead of whole-graph symbolic
    /// execution. On by default; the admission bench turns it off for its
    /// whole-graph baseline. Participates in the verdict-cache key.
    pub(crate) summaries_enabled: bool,
    /// The three verification memos, shared with the verification
    /// snapshots `deploy_batch` spawns so shard misses warm them for
    /// everyone, and flushed together by
    /// [`Controller::invalidate_verdicts`]. Only `verdicts` is
    /// verdict-bearing; `models` (element models, wired graphs, element
    /// and chain summaries — the whole-graph oracle deliberately uses
    /// none of them) and `lint` (reports keyed by the materialized
    /// configuration's canonical text) hold pure functions of their keys.
    pub(crate) verdicts: Arc<Memo<CachedVerdict>>,
    pub(crate) models: Arc<ModelCache>,
    pub(crate) lint: Arc<Memo<LintReport>>,
    /// The topology's network model with no module installed, built by
    /// the first request that has a requirement or operator policy to
    /// check, and kept: it is a pure function of the topology, which is
    /// fixed for the controller's lifetime, so no invalidation touches
    /// it. A build error (a middlebox with no symbolic model) is kept
    /// too, and every checked request reports it. Shared with the
    /// verification snapshots.
    pub(crate) topology_model: Arc<OnceLock<Result<NetworkModel, SymError>>>,
    /// Cumulative statistics and their metric mirror.
    pub(crate) ledger: Ledger,
}

impl Controller {
    /// Creates a controller for the given operator topology.
    pub fn new(topology: Topology) -> Controller {
        // The scoring context (client-vantage shortest paths) is immutable
        // — the topology is fixed for the controller's lifetime — and
        // shared with verification shards through the table.
        let placement = Arc::new(PlacementContext::new(&topology));
        Controller {
            table: ModuleTable::new(&topology, placement),
            addr_cursor: vec![FIRST_HOST; topology.nodes.len()],
            topology,
            registry: Registry::standard(),
            operator_policy: Vec::new(),
            clients: HashMap::new(),
            next_id: 1,
            hardening: HardeningPolicy::default(),
            summaries_enabled: true,
            verdicts: Arc::default(),
            models: Arc::default(),
            lint: Arc::default(),
            topology_model: Arc::default(),
            ledger: Ledger::default(),
        }
    }

    /// Enables or disables the compositional summary walk in the security
    /// check (whole-graph symbolic execution — the differential oracle —
    /// runs when disabled). Verdicts are identical either way; the flag
    /// still participates in the verdict-cache key because the reports
    /// attached to an outcome may order their details differently.
    pub fn set_summaries_enabled(&mut self, enabled: bool) {
        self.summaries_enabled = enabled;
    }

    /// Whether the compositional summary walk is enabled.
    pub fn summaries_enabled(&self) -> bool {
        self.summaries_enabled
    }

    /// Number of chain summaries currently cached.
    pub fn cached_summaries(&self) -> usize {
        self.models.chain_summaries_len()
    }

    /// Publishes this controller's counters into `registry` (Prometheus
    /// namespace `innet_ctl_*`): request/accept/reject totals,
    /// verdict-cache traffic, cumulative and per-request compile/check
    /// time, and `innet_ctl_verdicts_total` labeled by the outcome of
    /// each full (uncached) verification (`accept`, `sandbox`,
    /// `reject`). Only activity after attachment is counted.
    pub fn attach_metrics(&mut self, registry: &innet_obs::Registry) {
        self.ledger.attach_metrics(registry);
    }

    /// A snapshot of the controller's cumulative statistics.
    pub fn stats(&self) -> ControllerStats {
        self.ledger.stats()
    }

    /// Sets the §7 hardening policy (ingress filtering, UDP-reflection
    /// ban). Applies to subsequent deployments; an effective change
    /// invalidates all cached verdicts.
    pub fn set_hardening(&mut self, policy: HardeningPolicy) {
        if policy != self.hardening {
            self.hardening = policy;
            self.invalidate_verdicts();
        }
    }

    /// Discards every cached verification verdict by starting a new memo
    /// epoch — and the pure memos (models, graphs, summaries, lint) with
    /// it, so all verification memoization shares one invalidation rule.
    /// Called automatically on operator policy, hardening, and
    /// module-removal changes; operators can call it directly after
    /// out-of-band changes (e.g. topology edits).
    pub fn invalidate_verdicts(&mut self) {
        let flushed = ControllerStats {
            cache_invalidations: self.verdicts.bump_epoch(),
            summary_invalidations: self.models.bump_epoch(),
            ..ControllerStats::default()
        };
        self.lint.bump_epoch();
        self.ledger.record(&flushed, None);
    }

    /// Number of verdicts currently cached.
    pub fn cached_verdicts(&self) -> usize {
        self.verdicts.len()
    }

    /// The current hardening policy.
    pub fn hardening(&self) -> HardeningPolicy {
        self.hardening
    }

    /// Adds an operator policy rule that must hold after every network
    /// modification. Invalidates all cached verdicts: they were computed
    /// under the old rule set.
    pub fn add_operator_policy(&mut self, rule: Requirement) {
        self.operator_policy.push(rule);
        self.invalidate_verdicts();
    }

    /// Registers a tenant with its requester class and registered
    /// addresses.
    pub fn register_client(
        &mut self,
        id: impl Into<String>,
        class: RequesterClass,
        registered: Vec<Ipv4Addr>,
    ) {
        self.clients
            .insert(id.into(), ClientAccount { class, registered });
    }

    /// The currently installed modules, in commit order.
    pub fn modules(&self) -> &[InstalledModule] {
        self.table.modules()
    }

    /// The installed vswitch flow rules: one per installed module,
    /// steering its address to it.
    pub fn flow_rules(&self) -> Vec<FlowRule> {
        let rule = |m: &InstalledModule| FlowRule {
            platform: self.topology.node(m.platform).name.clone(),
            dst: m.addr,
            module: m.id,
        };
        self.modules().iter().map(rule).collect()
    }

    /// The operator policy rules.
    pub fn operator_policy_rules(&self) -> &[Requirement] {
        &self.operator_policy
    }

    /// Registered client accounts.
    pub fn client_accounts(&self) -> impl Iterator<Item = (&String, &ClientAccount)> {
        self.clients.iter()
    }

    /// Installs an already-verified module set verbatim (used when
    /// building verification snapshots for parallel shards). Every
    /// module's platform must be a node of the controller's topology.
    pub fn adopt_modules(&mut self, modules: Vec<InstalledModule>) {
        self.next_id = next_id_after(&modules).unwrap_or(self.next_id);
        self.table.replace_all(&self.topology, modules);
    }

    /// Whether the named platform still has capacity for one more module.
    pub fn platform_has_room(&self, platform_name: &str) -> bool {
        self.topology
            .index_of(platform_name)
            .is_some_and(|id| self.table.has_room(id))
    }

    /// The topology's platforms in placement-preference order (client
    /// latency, residual capacity, link headroom — see
    /// [`PlacementContext::score`]) under current occupancy.
    pub fn ranked_platforms(&self) -> Vec<NodeId> {
        self.table.ranked().collect()
    }

    /// The best-ranked platform that still has module capacity, if any.
    pub(crate) fn best_platform_with_room(&self) -> Option<NodeId> {
        self.table.ranked().find(|p| self.table.has_room(*p))
    }

    /// The current network state as a verification model: the kept
    /// topology model (built on first use) with the installed modules
    /// added, under the current hardening policy.
    pub fn network_model(&self) -> Result<NetworkModel, SymError> {
        self.model_with(self.modules())
    }

    /// The kept topology model with `modules` added — the one way the
    /// controller builds a network model.
    pub(crate) fn model_with<'a>(
        &self,
        modules: impl IntoIterator<Item = &'a InstalledModule>,
    ) -> Result<NetworkModel, SymError> {
        let topology = self
            .topology_model
            .get_or_init(|| NetworkModel::topology(&self.topology, &self.registry))
            .as_ref()
            .map_err(SymError::clone)?;
        let mut model = topology.with_modules(&self.topology, modules, &self.registry)?;
        model.ingress_filtering = self.hardening.ingress_filtering;
        Ok(model)
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The address the next module on `platform` would get, and the
    /// cursor value [`Controller::commit`] stores if it takes it — or the
    /// per-platform reject reason. Nothing is reserved: a candidate that
    /// fails verification costs no address.
    ///
    /// The cursor is a position on the pool seen as a ring: the offset
    /// just past the address most recently committed on the platform
    /// ([`FIRST_HOST`] before the first). The search starts there and goes
    /// once round, stepping over every address a live module on the
    /// platform holds — one probe of the table's address set per step —
    /// so a freed address comes back into use when the ring reaches it
    /// again, and `no address pool` means every address of the pool is
    /// held.
    pub(crate) fn free_addr(&self, platform: NodeId) -> Result<(Ipv4Addr, u64), &'static str> {
        let NodeKind::Platform(spec) = &self.topology.node(platform).kind else {
            return Err("not a platform");
        };
        let pool = spec.addr_pool;
        let span = u64::from(pool.last_u32() - pool.first_u32()) + 1;
        let start = self.addr_cursor[platform] % span;
        (start..start + span)
            .map(|c| (pool.nth_host((c % span) as u32), (c + 1) % span))
            .find(|(addr, _)| !self.table.holds(platform, *addr))
            .ok_or("no address pool")
    }

    /// Installs a verified module and stores the address cursor
    /// [`Controller::free_addr`] proposed with its address. The
    /// response's timings are the caller's to fill in.
    pub(crate) fn commit(&mut self, module: InstalledModule, next_addr: u64) -> DeployResponse {
        debug_assert_eq!(module.id, self.next_id);
        self.next_id += 1;
        self.addr_cursor[module.platform] = next_addr;
        let resp = DeployResponse {
            module_id: module.id,
            module_name: module.name.clone(),
            public_addr: module.addr,
            platform: self.topology.node(module.platform).name.clone(),
            sandboxed: module.sandboxed,
            compile_ns: 0,
            check_ns: 0,
        };
        self.table.insert(module);
        resp
    }

    /// Installs a request whose verdict was already established — either
    /// by a `deploy_batch` shard against an equivalent snapshot, or by a
    /// verdict-cache hit: allocates a fresh address, materializes the
    /// configuration, and commits without re-running the symbolic checks.
    /// The caller must have established that `platform_name` still has
    /// room.
    pub(crate) fn commit_unchecked(
        &mut self,
        client_id: &str,
        account: &ClientAccount,
        request: ClientRequest,
        platform_name: &str,
        sandboxed: bool,
    ) -> Result<DeployResponse, DeployError> {
        let slot = match self.topology.index_of(platform_name) {
            Some(platform) => self
                .free_addr(platform)
                .map(|(addr, next_addr)| (platform, addr, next_addr)),
            None => Err("unknown platform"),
        };
        let (platform, addr, next_addr) = slot.map_err(|why| DeployError::NoFeasiblePlacement {
            reasons: vec![(platform_name.to_string(), why.to_string())],
        })?;
        let raw_cfg = request.config.materialize(addr);
        let config = if sandboxed {
            wrap_with_enforcer(&raw_cfg, addr, &account.registered)
        } else {
            raw_cfg.into_owned()
        };
        let module = InstalledModule {
            id: self.next_id,
            name: request.module_name,
            platform,
            addr,
            config,
            sandboxed,
            owner: client_id.to_string(),
        };
        Ok(self.commit(module, next_addr))
    }

    /// Commits a deployment that a shard already verified against an
    /// equivalent snapshot (same topology, same modules, an address from
    /// the same pool). Only `deploy_batch` may call this, and only when no
    /// conflicting commit landed in between.
    pub(crate) fn commit_verified(
        &mut self,
        client_id: &str,
        request: ClientRequest,
        platform_name: &str,
        sandboxed: bool,
    ) -> Result<DeployResponse, DeployError> {
        // No `requests` in this delta: the shard that verified the
        // proposal already counted the request, and its statistics are
        // folded into this controller's by `fold_shard_stats` — counting
        // again would make batch deployments report more requests than
        // they served.
        let account = self
            .clients
            .get(client_id)
            .cloned()
            .ok_or_else(|| DeployError::UnknownClient(client_id.to_string()))?;
        let result = self.commit_unchecked(client_id, &account, request, platform_name, sandboxed);
        self.finish(ControllerStats::default(), result)
    }

    /// A verification-only copy of this controller: same topology, policy,
    /// accounts, installed modules, and hardening — with independent
    /// statistics and allocators, and the *shared* verification memos
    /// (built by direct field access so construction never bumps their
    /// epoch) and topology model.
    pub(crate) fn verification_clone(&self) -> Controller {
        Controller {
            topology: self.topology.clone(),
            registry: Registry::standard(),
            operator_policy: self.operator_policy.clone(),
            clients: self.clients.clone(),
            table: self.table.clone(),
            next_id: next_id_after(self.modules()).unwrap_or(self.next_id),
            addr_cursor: vec![FIRST_HOST; self.topology.nodes.len()],
            hardening: self.hardening,
            summaries_enabled: self.summaries_enabled,
            verdicts: Arc::clone(&self.verdicts),
            models: Arc::clone(&self.models),
            lint: Arc::clone(&self.lint),
            topology_model: Arc::clone(&self.topology_model),
            ledger: Ledger::default(),
        }
    }

    /// Folds a verification shard's statistics into this controller's.
    /// A shard counts a proposal it verified as `accepted`, but
    /// acceptance is only real once the serial commit phase lands it (or
    /// re-verifies it on conflict) — the live controller counts it
    /// there, so the shard's figure is dropped. Shards have no metrics
    /// attached, so their per-reason placement-reject split is not
    /// recoverable here — the total still folds.
    pub(crate) fn fold_shard_stats(&mut self, shard: ControllerStats) {
        let folded = ControllerStats {
            accepted: 0,
            ..shard
        };
        self.ledger.record(&folded, None);
    }

    /// Stops a module and removes its flow rules (§4.3 `kill`).
    ///
    /// Removing a module changes the installed topology, so all cached
    /// verdicts are invalidated: a placement that was infeasible
    /// ("platform full") or a requirement that failed against the old
    /// module set may now succeed.
    pub fn kill(&mut self, id: ModuleId) -> Result<(), DeployError> {
        self.table.remove(id).ok_or(DeployError::NoSuchModule(id))?;
        self.invalidate_verdicts();
        Ok(())
    }
}

/// The id after the largest in `modules` (`None` for an empty set).
fn next_id_after(modules: &[InstalledModule]) -> Option<ModuleId> {
    modules.iter().map(|m| m.id + 1).max()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::StockModule;

    const FIG4: &str = r#"
        module batcher:
        FromNetfront()
          -> IPFilter(allow udp dst port 1500)
          -> IPRewriter(pattern - - 172.16.15.133 - 0 0)
          -> TimedUnqueue(120, 100)
          -> dst :: ToNetfront();

        reach from internet udp
          -> batcher:dst:0 dst 172.16.15.133
          -> client dst port 1500
          const proto && dst port && payload
    "#;

    fn controller() -> Controller {
        let mut c = Controller::new(Topology::figure3());
        c.register_client(
            "mobile-7",
            RequesterClass::Client,
            vec![Ipv4Addr::new(172, 16, 15, 133)],
        );
        c.register_client(
            "cdn-corp",
            RequesterClass::ThirdParty,
            vec![Ipv4Addr::new(198, 51, 100, 1)],
        );
        c
    }

    #[test]
    fn unifying_example_deploys_on_platform3() {
        // §4.5: "only Platform 3 applies, since Platforms 1 and 2 are not
        // reachable from the outside."
        let mut c = controller();
        let req = ClientRequest::parse(FIG4).unwrap();
        let resp = c.deploy("mobile-7", req).unwrap();
        assert_eq!(resp.platform, "platform3");
        assert!(!resp.sandboxed);
        assert_eq!(c.modules().len(), 1);
        assert_eq!(c.flow_rules().len(), 1);
        assert_eq!(c.flow_rules()[0].dst, resp.public_addr);
    }

    #[test]
    fn unknown_client_rejected() {
        let mut c = controller();
        let req = ClientRequest::parse(FIG4).unwrap();
        assert!(matches!(
            c.deploy("stranger", req),
            Err(DeployError::UnknownClient(_))
        ));
    }

    #[test]
    fn spoofing_module_rejected() {
        let mut c = controller();
        let req = ClientRequest::parse(
            "module evil:\nFromNetfront() -> SetIPSrc(8.8.8.8) -> ToNetfront();\n\
             reach from internet -> client",
        )
        .unwrap();
        assert!(matches!(
            c.deploy("cdn-corp", req),
            Err(DeployError::SecurityReject(_))
        ));
        assert_eq!(c.modules().len(), 0);
    }

    #[test]
    fn x86_stock_is_sandboxed() {
        let mut c = controller();
        let req = ClientRequest::parse("stock vm: x86-vm").unwrap();
        let resp = c.deploy("cdn-corp", req).unwrap();
        assert!(resp.sandboxed);
        let m = &c.modules()[0];
        assert!(!m.config.elements_of_class("ChangeEnforcer").is_empty());
    }

    #[test]
    fn unsatisfiable_requirement_finds_no_placement() {
        let mut c = controller();
        // Require TCP delivery *through* a module that filters it out.
        let req = ClientRequest::parse(
            "module strict:\nFromNetfront() -> IPFilter(allow udp dst port 9) \
             -> IPRewriter(pattern - - 172.16.15.133 - 0 0) -> d :: ToNetfront();\n\
             reach from internet tcp -> strict:d:0 tcp -> client",
        )
        .unwrap();
        assert!(matches!(
            c.deploy("mobile-7", req),
            Err(DeployError::NoFeasiblePlacement { .. })
        ));
    }

    #[test]
    fn kill_removes_module_and_rules() {
        let mut c = controller();
        let resp = c
            .deploy("mobile-7", ClientRequest::parse(FIG4).unwrap())
            .unwrap();
        c.kill(resp.module_id).unwrap();
        assert!(c.modules().is_empty());
        assert!(c.flow_rules().is_empty());
        assert!(matches!(
            c.kill(resp.module_id),
            Err(DeployError::NoSuchModule(_))
        ));
    }

    #[test]
    fn operator_policy_is_enforced() {
        let mut c = controller();
        // An absurd operator rule nothing can satisfy: all traffic to
        // clients must arrive as ICMP from the batcher module, which does
        // not exist — any deployment that lets traffic reach clients in
        // another way is fine; this rule itself fails verification, so
        // every placement is refused.
        c.add_operator_policy(
            Requirement::parse("reach from internet icmp src port 1 -> client").unwrap(),
        );
        let req = ClientRequest::parse(FIG4).unwrap();
        assert!(matches!(
            c.deploy("mobile-7", req),
            Err(DeployError::NoFeasiblePlacement { .. })
        ));
    }

    #[test]
    fn stock_dns_deploys_unsandboxed() {
        let mut c = controller();
        let req = ClientRequest::parse("stock dns: geo-dns").unwrap();
        let resp = c.deploy("cdn-corp", req).unwrap();
        assert!(!resp.sandboxed);
    }

    #[test]
    fn stats_accumulate() {
        let mut c = controller();
        let _ = c.deploy("mobile-7", ClientRequest::parse(FIG4).unwrap());
        let s = c.stats();
        assert_eq!((s.requests, s.accepted, s.cache_misses), (1, 1, 1));
        // Which stages ran, by their counters: the symbolic stage
        // summarizes the entry chain; the lint report was computed, not
        // replayed.
        assert!(s.summary_cache_misses > 0 && s.summary_chain_nodes > 0);
        assert_eq!(s.lint_cache_hits, 0);
        // A requirement-free stock request takes the same symbolic stage
        // and, with nothing for placement to verify, compiles no model.
        let _ = c.deploy(
            "mobile-7",
            ClientRequest::parse("stock dns: geo-dns").unwrap(),
        );
        let t = c.stats();
        assert!(t.summary_chain_nodes > s.summary_chain_nodes);
        assert!(t.check_ns > s.check_ns);
        assert_eq!(t.compile_ns, s.compile_ns);
        assert_eq!(
            (t.fastpath_hits, t.fastpath_fallbacks, t.stage_fastpath_ns),
            (0, 0, 0)
        );
    }

    #[test]
    fn summary_cache_warms_across_requests() {
        let mut c = controller();
        c.deploy("mobile-7", ClientRequest::parse(FIG4).unwrap())
            .unwrap();
        let s1 = c.stats();
        assert!(
            s1.summary_cache_misses > 0,
            "first check computes summaries"
        );
        assert!(s1.summary_chain_nodes > 0, "chain elements were replayed");
        assert!(c.cached_summaries() > 0);
        // A renamed module with the same chain is a verdict-cache miss
        // (the module name is part of the verdict key) but a summary hit.
        let mut req2 = ClientRequest::parse(FIG4).unwrap();
        req2.module_name = "batcher2".to_string();
        c.deploy("mobile-7", req2).unwrap();
        let s2 = c.stats();
        assert!(s2.summary_cache_hits > s1.summary_cache_hits);
        assert_eq!(s2.summary_cache_misses, s1.summary_cache_misses);
    }

    #[test]
    fn invalidation_flushes_summary_cache() {
        let mut c = controller();
        let resp = c
            .deploy("mobile-7", ClientRequest::parse(FIG4).unwrap())
            .unwrap();
        assert!(c.cached_summaries() > 0);
        // `kill` bumps the shared epoch: verdicts and summaries flush
        // together.
        c.kill(resp.module_id).unwrap();
        assert_eq!(c.cached_summaries(), 0);
        assert_eq!(c.cached_verdicts(), 0);
        assert!(c.stats().summary_invalidations > 0);

        // The policy and hardening paths flush too.
        c.deploy("mobile-7", ClientRequest::parse(FIG4).unwrap())
            .unwrap();
        assert!(c.cached_summaries() > 0);
        c.add_operator_policy(Requirement::parse("reach from client -> internet").unwrap());
        assert_eq!(c.cached_summaries(), 0);
    }

    #[test]
    fn summaries_toggle_agrees_with_whole_graph_oracle() {
        let accept = ClientRequest::parse(FIG4).unwrap();
        let reject = ClientRequest::parse(
            "module evil:\nFromNetfront() -> SetIPSrc(8.8.8.8) -> ToNetfront();\n\
             reach from internet -> client",
        )
        .unwrap();
        let mut with = controller();
        let mut without = controller();
        without.set_summaries_enabled(false);
        assert!(!without.summaries_enabled());
        for req in [accept, reject] {
            let a = with.deploy("mobile-7", req.clone());
            let b = without.deploy("mobile-7", req);
            assert_eq!(a.is_ok(), b.is_ok(), "compositional verdict diverged");
        }
        assert_eq!(
            without.stats().summary_chain_nodes,
            0,
            "oracle mode replays nothing"
        );
        assert!(with.stats().summary_chain_nodes > 0);
    }

    #[test]
    fn second_module_gets_distinct_address() {
        let mut c = controller();
        let r1 = c
            .deploy("mobile-7", ClientRequest::parse(FIG4).unwrap())
            .unwrap();
        let mut req2 = ClientRequest::parse(FIG4).unwrap();
        req2.module_name = "batcher2".to_string();
        let r2 = c.deploy("mobile-7", req2).unwrap();
        assert_ne!(r1.public_addr, r2.public_addr);
        assert_eq!(c.modules().len(), 2);
    }

    /// FIG4 under a fresh module name (way-points reference the name).
    fn fig4_named(name: &str) -> ClientRequest {
        ClientRequest::parse(&FIG4.replace("batcher", name)).unwrap()
    }

    /// A requirement-free chain, so nothing but the allocator decides
    /// where it lands.
    fn churn_named(name: &str) -> ClientRequest {
        ClientRequest::parse(&format!(
            "module {name}:\nFromNetfront() -> IPFilter(allow udp dst port 1500) \
             -> IPRewriter(pattern - - 172.16.15.133 - 0 0) -> ToNetfront();"
        ))
        .unwrap()
    }

    #[test]
    fn churn_never_reuses_a_live_address() {
        // One platform with a /24 pool, a standing module on its first
        // address, and deploy/kill churn for more than three times round
        // the pool: the address ring must step over the standing module's
        // address every time it comes back to it.
        let mut topo = Topology::new();
        let clients = topo
            .add(
                "clients",
                NodeKind::ClientSubnet("172.16.0.0/16".parse().unwrap()),
            )
            .unwrap();
        let internet = topo.add("internet", NodeKind::Internet).unwrap();
        let spec = innet_topology::PlatformSpec::default();
        let pool = spec.addr_pool;
        let platform = topo.add("only", NodeKind::Platform(spec)).unwrap();
        topo.link_bidir(clients, 0, platform, 0);
        topo.link_bidir(internet, 0, platform, 1);
        let mut c = Controller::new(topo);
        c.register_client(
            "mobile-7",
            RequesterClass::Client,
            vec![Ipv4Addr::new(172, 16, 15, 133)],
        );

        let standing = c.deploy("mobile-7", churn_named("standing")).unwrap();
        assert_eq!(standing.public_addr, pool.nth_host(10));
        // What the ring hands out beside a module on offset 10: offsets
        // 11, 12, … modulo the pool, never 10 — the same sequence the
        // cursor produced before the table existed.
        let mut expected = (11u32..).map(|c| c % 256).filter(|&off| off != 10);
        for i in 0..800 {
            let resp = c
                .deploy("mobile-7", churn_named(&format!("churn{i}")))
                .unwrap();
            assert_eq!(
                resp.public_addr,
                pool.nth_host(expected.next().unwrap()),
                "cycle {i}"
            );
            let mut addrs: Vec<_> = c.modules().iter().map(|m| (m.platform, m.addr)).collect();
            addrs.sort_unstable();
            addrs.dedup();
            assert_eq!(
                addrs.len(),
                2,
                "cycle {i}: two live modules share an address"
            );
            let mut dsts: Vec<_> = c
                .flow_rules()
                .into_iter()
                .map(|r| (r.platform, r.dst))
                .collect();
            dsts.sort_unstable();
            dsts.dedup();
            assert_eq!(dsts.len(), 2, "cycle {i}: two flow rules steer one address");
            c.kill(resp.module_id).unwrap();
        }
    }

    #[test]
    fn pool_is_exhausted_only_when_every_address_is_held() {
        // Sixteen addresses and room for a thousand modules. Walk the
        // ring past its wrap with churn first, then fill the pool: every
        // one of the sixteen is handed out exactly once before `no
        // address pool` is reported, and one `kill` makes room again.
        let mut topo = Topology::figure3();
        let p3 = topo.index_of("platform3").unwrap();
        if let NodeKind::Platform(spec) = &mut topo.nodes[p3].kind {
            spec.addr_pool = "203.0.113.0/28".parse().unwrap();
        }
        let mut c = Controller::new(topo);
        c.register_client(
            "mobile-7",
            RequesterClass::Client,
            vec![Ipv4Addr::new(172, 16, 15, 133)],
        );
        for i in 0..40 {
            let resp = c.deploy("mobile-7", fig4_named(&format!("c{i}"))).unwrap();
            c.kill(resp.module_id).unwrap();
        }
        let mut held = std::collections::HashSet::new();
        for i in 0..16 {
            let resp = c.deploy("mobile-7", fig4_named(&format!("m{i}"))).unwrap();
            assert!(held.insert(resp.public_addr), "{} twice", resp.public_addr);
        }
        let Err(DeployError::NoFeasiblePlacement { reasons }) =
            c.deploy("mobile-7", fig4_named("m16"))
        else {
            panic!("a seventeenth module cannot have an address");
        };
        assert!(reasons.contains(&("platform3".to_string(), "no address pool".to_string())));
        let victim = c.modules()[5].clone();
        c.kill(victim.id).unwrap();
        let resp = c.deploy("mobile-7", fig4_named("m16")).unwrap();
        assert_eq!(resp.public_addr, victim.addr, "the one free address");
    }

    #[test]
    fn nothing_to_check_compiles_no_model() {
        // A requirement-free request under no operator policy reaches the
        // placement stage with nothing to verify there: it must not pay
        // for a network model.
        let mut c = controller();
        let resp = c.deploy("mobile-7", churn_named("plain")).unwrap();
        assert_eq!(
            (resp.platform.as_str(), resp.public_addr, resp.sandboxed),
            ("platform3", Ipv4Addr::new(203, 0, 113, 10), false)
        );
        let s = c.stats();
        assert_eq!(s.accepted, 1);
        assert!(s.stage_symbolic_ns > 0, "the security check ran");
        assert_eq!((s.compile_ns, resp.compile_ns), (0, 0));
        // A requirement brings the model back.
        c.deploy("mobile-7", fig4_named("needy")).unwrap();
        assert!(c.stats().compile_ns > 0);
    }

    #[test]
    fn verification_clone_shares_the_topology_model() {
        let mut c = controller();
        let shard = c.verification_clone();
        assert!(Arc::ptr_eq(&c.topology_model, &shard.topology_model));
        // Whichever side checks first builds it for both.
        c.deploy("mobile-7", fig4_named("first")).unwrap();
        assert!(matches!(shard.topology_model.get(), Some(Ok(_))));
    }

    #[test]
    fn requests_with_nothing_to_check_never_build_the_topology_model() {
        // `adm-stock`'s shape: stock and requirement-free Click requests
        // under no operator policy, and kills between them.
        let mut c = controller();
        for i in 0..100 {
            let req = if i % 2 == 0 {
                churn_named(&format!("chain{i}"))
            } else {
                ClientRequest::parse(&format!("stock dns{i}: geo-dns")).unwrap()
            };
            c.deploy("mobile-7", req).unwrap();
        }
        c.kill(c.modules()[7].id).unwrap();
        assert!(c.topology_model.get().is_none());
        assert_eq!(c.stats().compile_ns, 0);
    }

    #[test]
    fn unmodellable_middlebox_fails_every_checked_request_alike() {
        // A middlebox the verifier has no model for: every request with
        // something to check reports the same build error, read from the
        // kept `Err`; requests with nothing to check never look.
        let mut topo = Topology::figure3();
        let opt = topo.index_of("HTTPOptimizer").unwrap();
        topo.nodes[opt].kind = NodeKind::Middlebox(
            innet_click::ClickConfig::parse(
                "in :: FromNetfront(0); x :: Frobnicator(); out :: ToNetfront(1); in -> x -> out;",
            )
            .unwrap(),
        );
        let mut c = Controller::new(topo);
        c.register_client(
            "mobile-7",
            RequesterClass::Client,
            vec![Ipv4Addr::new(172, 16, 15, 133)],
        );
        let errors: Vec<SymError> = ["a", "b", "c"]
            .into_iter()
            .map(|name| match c.deploy("mobile-7", fig4_named(name)) {
                Err(DeployError::BadConfig(e)) => e,
                other => panic!("{name}: {other:?}"),
            })
            .collect();
        assert!(errors.iter().all(|e| *e == errors[0]), "{errors:?}");
        assert!(matches!(c.topology_model.get(), Some(Err(_))));
        assert!(c.network_model().is_err());
        c.deploy("mobile-7", churn_named("plain")).unwrap();
    }

    #[test]
    fn exhausted_pool_is_a_capacity_reject() {
        // Four addresses, a thousand module slots: the pool runs out
        // first, and says so instead of doubling up.
        let mut topo = Topology::figure3();
        let p3 = topo.index_of("platform3").unwrap();
        if let NodeKind::Platform(spec) = &mut topo.nodes[p3].kind {
            spec.addr_pool = "203.0.113.0/30".parse().unwrap();
        }
        let mut c = Controller::new(topo);
        c.register_client(
            "mobile-7",
            RequesterClass::Client,
            vec![Ipv4Addr::new(172, 16, 15, 133)],
        );
        for i in 0..4 {
            c.deploy("mobile-7", fig4_named(&format!("m{i}"))).unwrap();
        }
        let Err(DeployError::NoFeasiblePlacement { reasons }) =
            c.deploy("mobile-7", fig4_named("m4"))
        else {
            panic!("a fifth module cannot have an address");
        };
        assert!(reasons.contains(&("platform3".to_string(), "no address pool".to_string())));
        // Capacity-class, so not memoized: space freed by `kill` is found.
        let victim = c.modules()[0].id;
        c.kill(victim).unwrap();
        c.deploy("mobile-7", fig4_named("m4")).unwrap();
    }

    #[test]
    fn self_placeholder_bound_at_deploy() {
        let mut c = controller();
        // A tunnel endpoint cannot know its address in advance: `$SELF`
        // is bound by the controller per candidate platform.
        let req = ClientRequest::parse(
            "module tun:\n\
             FromNetfront(0) -> UDPTunnelEncap($SELF, 7000, 172.16.15.133, 7001) \
             -> ToNetfront(1);\n\
             FromNetfront(1) -> UDPTunnelDecap() -> ToNetfront(0);",
        )
        .unwrap();
        let resp = c.deploy("mobile-7", req).unwrap();
        // The installed configuration carries the concrete address.
        let m = &c.modules()[0];
        let encap = m
            .config
            .elements
            .iter()
            .find(|e| e.class == "UDPTunnelEncap")
            .unwrap();
        assert_eq!(encap.args[0], resp.public_addr.to_string());
        assert!(!resp.sandboxed, "client tunnels verify cleanly");
    }

    #[test]
    fn udp_ban_rejects_third_party_dns() {
        use crate::hardening::HardeningPolicy;
        let mut c = controller();
        c.set_hardening(HardeningPolicy {
            ingress_filtering: true,
            ban_udp_reflection: true,
        });
        // Without the ban this deploys (Table 1: DNS is Safe); with it,
        // the amplification vector is refused for third parties…
        let req = ClientRequest::parse("stock dns: geo-dns").unwrap();
        assert!(matches!(
            c.deploy("cdn-corp", req),
            Err(DeployError::SecurityReject(_))
        ));
        // …while the operator's own clients remain exempt.
        let req = ClientRequest::parse("stock dns: geo-dns").unwrap();
        assert!(c.deploy("mobile-7", req).is_ok());
    }

    #[test]
    fn stock_reverse_proxy_for_third_party() {
        let mut c = controller();
        let req = ClientRequest::parse(
            "stock edge: reverse-proxy\n\nreach from internet tcp dst port 80 -> edge",
        )
        .unwrap();
        let resp = c.deploy("cdn-corp", req).unwrap();
        assert!(!resp.sandboxed, "turn-around proxies verify cleanly");
        let _ = StockModule::ReverseHttpProxy;
    }
}
