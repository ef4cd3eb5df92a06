//! The admission pipeline (§4.3, §4.5): verdict-memo replay, then the
//! full evaluation as three stages — lint → compositional symbolic →
//! placement — and the commit of whichever candidate platform verifies
//! first.
//!
//! Each path describes the work it did as a [`ControllerStats`] delta;
//! [`Controller::finish`] stamps the outcome on it and hands it to the
//! ledger, the only place statistics are written.

use std::convert::Infallible;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Instant;

use innet_analysis::LintReport;
use innet_click::ClickConfig;
use innet_policy::Requirement;
use innet_symnet::{
    check_module_summarized, check_module_with_stats, SecurityContext, SecurityReport, SymError,
    Verdict,
};

use crate::{
    cache::{verdict_key, CachedOutcome, CachedVerdict},
    controller::{ClientAccount, Controller, DeployError, DeployResponse},
    hardening::apply_udp_reflection_ban,
    netmodel::InstalledModule,
    request::{ClientRequest, ModuleConfig},
    sandbox::wrap_with_enforcer,
    stats::ControllerStats,
    verify::check_requirement_summarized,
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
        self.deploy_counted(client_id, request, true)
    }

    /// [`Controller::deploy`] with explicit control over the `requests`
    /// statistic. `deploy_batch`'s conflict path re-verifies a request
    /// that a shard already counted, so it passes `count_request: false`
    /// to keep batch and serial statistics identical.
    pub(crate) fn deploy_counted(
        &mut self,
        client_id: &str,
        request: ClientRequest,
        count_request: bool,
    ) -> Result<DeployResponse, DeployError> {
        let mut delta = ControllerStats {
            requests: u64::from(count_request),
            ..ControllerStats::default()
        };
        let Some(account) = self.clients.get(client_id).cloned() else {
            // Not a verdict about the request: counted, never rejected.
            self.ledger.record(&delta, None);
            return Err(DeployError::UnknownClient(client_id.to_string()));
        };

        let epoch = self.verdicts.epoch();
        let key = verdict_key(
            epoch,
            &request,
            &account,
            self.hardening,
            self.summaries_enabled,
        );
        if let Some(hit) = self.verdicts.get(&key) {
            let replay = match hit.outcome {
                CachedOutcome::Reject(e) => Some(Err(e)),
                CachedOutcome::Accept {
                    platform,
                    sandboxed,
                } => {
                    let cached = self.topology.index_of(&platform);
                    if cached.is_some_and(|p| self.table.has_room(p)) {
                        Some(Ok((platform, sandboxed)))
                    } else if request.requirements.is_empty() && self.operator_policy.is_empty() {
                        // The cached placement filled up since it was
                        // verified, but with no requirements and no
                        // operator policy the verdict is
                        // placement-independent (the same argument
                        // `commit_unchecked` already relies on) — only
                        // the placement step needs redoing. Commit on the
                        // best-ranked platform with room, still as a
                        // cache hit: no model is compiled and no check
                        // re-runs. The refreshed entry points the next
                        // hit straight at the new platform. With every
                        // platform full, fall through to the full
                        // pipeline (counted as a miss), which reports the
                        // per-platform reasons.
                        self.best_platform_with_room().map(|alt| {
                            let alt = self.topology.node(alt).name.clone();
                            self.verdicts.insert(
                                epoch,
                                key.clone(),
                                CachedVerdict {
                                    outcome: CachedOutcome::Accept {
                                        platform: alt.clone(),
                                        sandboxed,
                                    },
                                    check_ns: hit.check_ns,
                                },
                            );
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
                    self.commit_unchecked(client_id, &account, request, &platform, sandboxed)
                });
                return self.finish(delta, result);
            }
        }

        delta.cache_misses += 1;
        let (result, work) = self.deploy_uncached(client_id, &account, request);
        delta += &work;
        if let Some(outcome) = CachedOutcome::of(&result) {
            let check_ns = work.check_ns;
            self.verdicts
                .insert(epoch, key, CachedVerdict { outcome, check_ns });
        }
        self.finish(delta, result)
    }

    /// Stamps a request's outcome on its delta and records it.
    pub(crate) fn finish(
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
    /// stages — lint → compositional symbolic → placement. Returns the
    /// outcome and the delta of the work done:
    /// per-phase and per-stage wall time plus the analysis and memo
    /// counters. A committed module is the only state change.
    fn deploy_uncached(
        &mut self,
        client_id: &str,
        account: &ClientAccount,
        request: ClientRequest,
    ) -> (Result<DeployResponse, DeployError>, ControllerStats) {
        let mut delta = ControllerStats::default();

        let lint_report = self.lint_stage(&request.config, &mut delta);
        if lint_report.has_errors() {
            delta.lint_rejects += 1;
            return (Err(DeployError::Lint(lint_report)), delta);
        }

        let mut reasons: Vec<(String, String)> = Vec::new();
        let found = 'search: {
            // Candidates in placement-preference order: client latency,
            // residual capacity, link headroom (see `PlacementContext`),
            // read lazily off the table's live order — the common
            // first-candidate accept never looks at a second platform.
            // On figure-3-scale topologies with uniform links this
            // degenerates to the paper's declaration-order iteration.
            for platform in self.table.ranked() {
                // Placement: capacity check and tentative address
                // assignment on this platform, then the configuration
                // materialized for that address (stock modules need it;
                // Click configurations may reference it as `$SELF`).
                let t_place = Instant::now();
                let slot = if self.table.has_room(platform) {
                    self.free_addr(platform)
                } else {
                    Err("platform full")
                };
                let (addr, next_addr) = match slot {
                    Ok(slot) => slot,
                    Err(why) => {
                        delta.stage_placement_ns += ns_since(t_place);
                        let name = self.topology.node(platform).name.clone();
                        reasons.push((name, why.to_string()));
                        continue;
                    }
                };
                let raw_cfg = request.config.materialize(addr);
                delta.stage_placement_ns += ns_since(t_place);

                let ctx = SecurityContext {
                    assigned_addr: addr,
                    registered: account.registered.clone(),
                    class: account.class,
                };
                let report = match self.security_stage(&raw_cfg, &ctx, &mut delta) {
                    Ok(report) => report,
                    Err(e) => break 'search Err(DeployError::BadConfig(e)),
                };
                let (config, sandboxed) = match report.verdict {
                    Verdict::Reject => {
                        break 'search Err(DeployError::SecurityReject(Arc::new(report)));
                    }
                    Verdict::SafeWithSandbox => (
                        wrap_with_enforcer(&raw_cfg, addr, &account.registered),
                        true,
                    ),
                    Verdict::Safe => (raw_cfg.into_owned(), false),
                };

                // Pretend the module is installed here.
                let candidate = InstalledModule {
                    id: self.next_id,
                    name: request.module_name.clone(),
                    platform,
                    addr,
                    config,
                    sandboxed,
                    owner: client_id.to_string(),
                };
                match self.placement_stage(&candidate, &request.requirements, &mut delta) {
                    Ok(None) => {}
                    Ok(Some(why)) => {
                        reasons.push((self.topology.node(platform).name.clone(), why));
                        continue;
                    }
                    Err(e) => break 'search Err(e),
                }
                break 'search Ok((candidate, next_addr));
            }
            Err(DeployError::NoFeasiblePlacement { reasons })
        };
        // The search only reads the table; the one write comes after it.
        let result = found.map(|(candidate, next_addr)| {
            let mut resp = self.commit(candidate, next_addr);
            resp.compile_ns = delta.compile_ns;
            resp.check_ns = delta.check_ns;
            resp
        });
        (result, delta)
    }

    /// Stage 1: lint. Structural rules are address-independent, so one
    /// pass covers every candidate platform; `$SELF` is bound to a
    /// documentation address purely so argument parsing succeeds. Lint is
    /// a pure function of (configuration, registry), so a report memoized
    /// under the configuration's canonical text is an exact replay — the
    /// stock chains a fleet redeploys under fresh module names lint once.
    fn lint_stage(&self, config: &ModuleConfig, delta: &mut ControllerStats) -> LintReport {
        let t = Instant::now();
        let cfg = config.materialize(Ipv4Addr::new(192, 0, 2, 1));
        let mut hit = true;
        let Ok(report) = self.lint.get_or_try_insert_with(cfg.canonical_text(), || {
            hit = false;
            Ok::<_, Infallible>(innet_analysis::lint(&cfg, &self.registry))
        });
        delta.lint_cache_hits += u64::from(hit);
        let ns = ns_since(t);
        delta.analysis_ns += ns;
        delta.stage_lint_ns += ns;
        report
    }

    /// Stage 2: the compositional symbolic security check of `cfg` at
    /// its candidate address (per requester class). The summary walk
    /// replays memoized chain summaries from the fleet-wide memos;
    /// disabled, the whole-graph oracle runs.
    fn security_stage(
        &self,
        cfg: &ClickConfig,
        ctx: &SecurityContext,
        delta: &mut ControllerStats,
    ) -> Result<SecurityReport, SymError> {
        let t = Instant::now();
        let checked = if self.summaries_enabled {
            check_module_summarized(cfg, ctx, &self.registry, Some(&self.models))
        } else {
            check_module_with_stats(cfg, ctx, &self.registry)
        };
        let (mut report, check) = checked?;
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
        Ok(report)
    }

    /// Stage 3: placement verification — the kept topology model with the
    /// installed modules and the candidate added, then operator policy and
    /// client requirements checked against it (summary-walked where the
    /// entry chains allow). `Ok(Some(why))` is this platform's reject
    /// reason. With no policy and no requirements there is nothing to
    /// check, and no model is built.
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
            match check_requirement_summarized(&model, rule, self.summaries_enabled) {
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
