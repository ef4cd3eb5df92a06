//! The admission pipeline (§4.3, §4.5): verdict-memo replay, then the
//! full evaluation as three stages — lint and the symbolic security
//! check once per request, then placement per candidate platform — and
//! the commit of whichever candidate verifies first.
//!
//! Each path describes the work it did as a [`ControllerStats`] delta;
//! [`Controller::finish`] stamps the outcome on it and hands it to the
//! ledger, the only place statistics are written.

use std::sync::Arc;
use std::time::Instant;

use innet_analysis::{lint_cached, LintReport, SELF_SENTINEL};
use innet_click::ClickConfig;
use innet_policy::Requirement;
use innet_symnet::{check_module_memoized, SecurityContext, Verdict};
use innet_topology::NodeId;

use crate::{
    cache::{verdict_key, CachedOutcome, CachedVerdict},
    controller::{ClientAccount, Controller, DeployError, DeployResponse},
    hardening::apply_udp_reflection_ban,
    netmodel::InstalledModule,
    request::{ClientRequest, ModuleConfig},
    stats::ControllerStats,
    verify::check_requirement_counted,
};

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

impl Controller {
    /// Handles a deployment request (§4.3, §4.5): parse → verdict-cache
    /// lookup → security check → per-platform placement search → commit.
    ///
    /// The verdict cache is consulted before any model is compiled: a hit
    /// replays the memoized decision (re-checking only platform capacity
    /// for accepts), a miss runs the full pipeline and memoizes its
    /// outcome. See the `cache` module docs for the key derivation and
    /// the invalidation contract.
    pub fn deploy(
        &mut self,
        client_id: &str,
        request: ClientRequest,
    ) -> Result<DeployResponse, DeployError> {
        let mut delta = ControllerStats {
            requests: 1,
            ..ControllerStats::default()
        };
        let Some(account) = self.clients.get(client_id).cloned() else {
            // Not a verdict about the request: counted, never rejected.
            self.ledger.record(&delta, None);
            return Err(DeployError::UnknownClient(client_id.to_string()));
        };

        let epoch = self.verdicts.epoch();
        let key = verdict_key(epoch, &request, &account, self.hardening);
        if let Some(hit) = self.verdicts.get(&key) {
            let replay = match hit.outcome {
                CachedOutcome::Reject(e) => Some(Err(e)),
                CachedOutcome::Accept {
                    platform,
                    sandboxed,
                } => {
                    if self.table.has_room(platform) {
                        Some(Ok((platform, sandboxed)))
                    } else if request.requirements.is_empty() && self.operator_policy.is_empty() {
                        // The cached placement filled up since it was
                        // verified, but with no requirements and no
                        // operator policy nothing placement checks can
                        // differ between platforms — only the placement
                        // step needs redoing. Commit on the best-ranked
                        // platform with room, still as a cache hit: no
                        // model is compiled and no check re-runs. The
                        // refreshed entry points the next hit straight at
                        // the new platform. With every platform full,
                        // fall through to the full pipeline (counted as a
                        // miss), which reports the per-platform reasons.
                        self.best_platform_with_room().map(|alt| {
                            let outcome = CachedOutcome::Accept {
                                platform: alt,
                                sandboxed,
                            };
                            let refreshed = CachedVerdict { outcome, ..hit };
                            self.verdicts.insert(epoch, key.clone(), refreshed);
                            Ok((alt, sandboxed))
                        })
                    } else {
                        // The cached placement filled up, and the request
                        // constrains placement (requirements or operator
                        // policy), so the verdict may not transfer to
                        // another platform: full re-verification (counted
                        // as a miss), whose outcome replaces the stale
                        // entry.
                        None
                    }
                }
            };
            if let Some(replay) = replay {
                delta.cache_hits += 1;
                delta.check_ns_saved += hit.check_ns;
                let result = replay.and_then(|(platform, sandboxed)| {
                    self.commit_unchecked(client_id, &account, request, platform, sandboxed)
                });
                return self.finish(delta, result);
            }
        }

        delta.cache_misses += 1;
        let names_self = request.config.names_self();
        let (result, work) = self.deploy_uncached(client_id, &account, request);
        delta += &work;
        if let Some(outcome) = CachedOutcome::of(names_self, &result) {
            let check_ns = work.check_ns;
            self.verdicts
                .insert(epoch, key, CachedVerdict { outcome, check_ns });
        }
        self.finish(delta, result.map(|(_, resp)| resp))
    }

    /// Stamps a request's outcome on its delta and records it.
    fn finish(
        &mut self,
        mut delta: ControllerStats,
        result: Result<DeployResponse, DeployError>,
    ) -> Result<DeployResponse, DeployError> {
        match &result {
            Ok(_) => delta.accepted += 1,
            Err(e) => {
                delta.rejected += 1;
                if let DeployError::NoFeasiblePlacement { reasons } = e {
                    delta.placement_rejects += reasons.len() as u64;
                }
            }
        }
        self.ledger.record(&delta, Some(&result));
        result
    }

    /// The full (uncached) admission pipeline, run as three explicit
    /// stages — lint → symbolic → placement. Lint and the security check
    /// run once per request, with `$SELF` bound to [`SELF_SENTINEL`];
    /// placement runs per candidate platform, on the request bound to
    /// that candidate's address. A configuration that
    /// names `$SELF` is security-checked at that address too (see
    /// [`ModuleConfig::names_self`]). Returns the outcome, with the
    /// platform an accept committed to, and the delta of the work done:
    /// per-phase and per-stage wall time plus the analysis and memo
    /// counters. A committed module is the only state change.
    fn deploy_uncached(
        &mut self,
        client_id: &str,
        account: &ClientAccount,
        request: ClientRequest,
    ) -> (
        Result<(NodeId, DeployResponse), DeployError>,
        ControllerStats,
    ) {
        let mut delta = ControllerStats::default();

        let lint_report = self.lint_stage(&request.config, &mut delta);
        if lint_report.has_errors() {
            delta.lint_rejects += 1;
            return (Err(DeployError::Lint(lint_report)), delta);
        }

        let ctx = SecurityContext {
            assigned_addr: SELF_SENTINEL,
            registered: account.registered.clone(),
            class: account.class,
        };
        let checked = request.config.materialize(SELF_SENTINEL);
        let sandboxed = match self.security_stage(&checked, &ctx, &mut delta) {
            Ok(sandboxed) => sandboxed,
            Err(e) => return (Err(e), delta),
        };

        // With no operator policy and no requirement, placement checks
        // nothing: the first platform with an address takes the module.
        let checks_placement =
            !(self.operator_policy.is_empty() && request.requirements.is_empty());
        let names_self = request.config.names_self();
        // Placement refusals, in walk order. A full platform's reason is
        // not recorded: it is read again off the table only if the search
        // places nothing, so the walk past full platforms allocates
        // nothing.
        let mut refused: Vec<(NodeId, String)> = Vec::new();
        let found = 'search: {
            // Candidates in placement-preference order: client latency,
            // residual capacity, link headroom (see `PlacementContext`),
            // read lazily off the table's live order — the common
            // first-candidate accept never looks at a second platform.
            // On figure-3-scale topologies with uniform links this
            // degenerates to the paper's declaration-order iteration.
            for platform in self.table.ranked() {
                // Capacity check and tentative address assignment on
                // this platform.
                let t_place = Instant::now();
                let slot = self.slot(platform);
                delta.stage_placement_ns += ns_since(t_place);
                let Ok((addr, next_addr)) = slot else {
                    continue;
                };
                // The sentinel never equals a literal the configuration
                // compares `$SELF` with; this address may. Check it here.
                let sandboxed = if names_self {
                    let here = SecurityContext {
                        assigned_addr: addr,
                        ..ctx.clone()
                    };
                    let bound = request.config.materialize(addr);
                    match self.security_stage(&bound, &here, &mut delta) {
                        Ok(wrap) => sandboxed || wrap,
                        Err(e) => break 'search Err(e),
                    }
                } else {
                    sandboxed
                };
                if !checks_placement {
                    break 'search Ok((platform, addr, sandboxed, next_addr, None));
                }
                // The module as it would be installed there: bound to
                // that address (stock modules need it; Click
                // configurations may reference it as `$SELF`).
                let t_place = Instant::now();
                let candidate =
                    self.module_at(client_id, account, &request, platform, addr, sandboxed);
                delta.stage_placement_ns += ns_since(t_place);
                match self.placement_stage(&candidate, &request.requirements, &mut delta) {
                    Ok(None) => {
                        break 'search Ok((platform, addr, sandboxed, next_addr, Some(candidate)))
                    }
                    Ok(Some(why)) => refused.push((platform, why)),
                    Err(e) => break 'search Err(e),
                }
            }
            let reasons = self.placement_reasons(refused);
            Err(DeployError::NoFeasiblePlacement { reasons })
        };
        // The search only reads the table; the one write comes after it.
        let result = found.map(|(platform, addr, sandboxed, next_addr, candidate)| {
            let module = candidate.unwrap_or_else(|| {
                let t_place = Instant::now();
                let module =
                    self.install_at(client_id, account, request, platform, addr, sandboxed);
                delta.stage_placement_ns += ns_since(t_place);
                module
            });
            let mut resp = self.commit(module, next_addr);
            resp.compile_ns = delta.compile_ns;
            resp.check_ns = delta.check_ns;
            (platform, resp)
        });
        (result, delta)
    }

    /// The `(platform, reason)` list of a search that placed nothing, in
    /// rank order: a full platform's capacity reason, read again off the
    /// table the search left unchanged, and every other platform's
    /// placement refusal, taken from `refused` in walk order.
    fn placement_reasons(&self, refused: Vec<(NodeId, String)>) -> Vec<(String, String)> {
        let mut refused = refused.into_iter();
        self.table
            .ranked()
            .map(|platform| {
                let why = match self.slot(platform) {
                    Err(why) => why.to_string(),
                    Ok(_) => {
                        let (at, why) = refused.next().expect("every open platform refused");
                        debug_assert_eq!(at, platform);
                        why
                    }
                };
                (self.topology.node(platform).name.clone(), why)
            })
            .collect()
    }

    /// Stage 1: lint, of the request as a client would write it (`lint`
    /// reads `$SELF` itself). Lint is a pure function of (configuration,
    /// registry), so a report memoized under the configuration's
    /// canonical text is an exact replay — the stock chains a fleet
    /// redeploys under fresh module names lint once. Lint fills the model
    /// memo, so the security stage parses no element again.
    fn lint_stage(&self, config: &ModuleConfig, delta: &mut ControllerStats) -> LintReport {
        let t = Instant::now();
        let template = config.template();
        let key = template.canonical_str();
        let cached = self.lint.get(key);
        let hit = cached.is_some();
        let report = cached.unwrap_or_else(|| {
            // Read before linting: a report computed across a flush is
            // not stored.
            let epoch = self.lint.epoch();
            let report = lint_cached(&template, &self.registry, &self.models);
            self.lint.insert(epoch, key.to_owned(), report.clone());
            report
        });
        delta.lint_cache_hits += u64::from(hit);
        let ns = ns_since(t);
        delta.analysis_ns += ns;
        delta.stage_lint_ns += ns;
        report
    }

    /// Stage 2: the symbolic security check of `cfg` in `ctx` (per
    /// requester class), as a decision: whether the module must run
    /// sandboxed, or the error that refuses it. The check runs the wired
    /// graph from the fleet-wide memos.
    fn security_stage(
        &self,
        cfg: &ClickConfig,
        ctx: &SecurityContext,
        delta: &mut ControllerStats,
    ) -> Result<bool, DeployError> {
        let t = Instant::now();
        delta.security_checks += 1;
        let (mut report, check) = check_module_memoized(cfg, ctx, &self.registry, &self.models)
            .map_err(DeployError::BadConfig)?;
        delta.absorb(check);
        let ns = ns_since(t);
        delta.check_ns += ns;
        delta.stage_symbolic_ns += ns;

        // §7 hardening: the UDP-reflection (amplification) ban.
        if self.hardening.ban_udp_reflection {
            let (hardened, offenders) =
                apply_udp_reflection_ban(ctx.class, &report.egress_flows, &report);
            report.verdict = hardened;
            report.violations.extend(offenders);
        }
        match report.verdict {
            Verdict::Reject => Err(DeployError::SecurityReject(Arc::new(report))),
            Verdict::SafeWithSandbox => Ok(true),
            Verdict::Safe => Ok(false),
        }
    }

    /// Stage 3: placement verification — the kept topology model with the
    /// installed modules and the candidate added (each by its memoized
    /// graph; an unsandboxed Click candidate's is the one the security
    /// stage just walked), then operator policy and client requirements
    /// checked against it.
    /// `Ok(Some(why))` is this platform's reject reason. With no policy
    /// and no requirements there is nothing to check, and no model is
    /// built.
    ///
    /// A `reach` rule holds only on a conforming flow the exploration
    /// found, so a run cut at the hop cap can turn "holds" into "does not
    /// hold" but never the reverse: refusing the platform is safe, but the
    /// reason says the rule is undecided, not that it fails.
    fn placement_stage(
        &self,
        candidate: &InstalledModule,
        requirements: &[Requirement],
        delta: &mut ControllerStats,
    ) -> Result<Option<String>, DeployError> {
        if self.operator_policy.is_empty() && requirements.is_empty() {
            return Ok(None);
        }

        let t = Instant::now();
        let world = self.table.modules().iter().chain([candidate]);
        let model = self.model_with(world).map_err(DeployError::BadConfig)?;
        let ns = ns_since(t);
        delta.compile_ns += ns;
        delta.stage_placement_ns += ns;

        let t = Instant::now();
        let policy = self.operator_policy.iter();
        let policy = policy.map(|rule| (rule, "operator policy", "violated"));
        let wanted = requirements.iter();
        let wanted = wanted.map(|rule| (rule, "client requirement", "unsatisfied"));
        let mut verdict = Ok(None);
        for (rule, what, failed) in policy.chain(wanted) {
            match check_requirement_counted(&model, rule) {
                Ok((holds, check)) => {
                    let outcome = if check.hop_cap_bailouts > 0 {
                        "undecided: exploration truncated at the hop cap"
                    } else {
                        failed
                    };
                    delta.absorb(check);
                    if !holds {
                        verdict = Ok(Some(format!("{what} {outcome}: {rule}")));
                        break;
                    }
                }
                Err(e) => {
                    verdict = Err(DeployError::Verify(e));
                    break;
                }
            }
        }
        let ns = ns_since(t);
        delta.check_ns += ns;
        delta.stage_placement_ns += ns;
        verdict
    }
}
