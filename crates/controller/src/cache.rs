//! The verification verdict cache.
//!
//! Symbolic verification dominates the controller's per-request cost
//! (Figure 10 splits request latency into model compilation and checking).
//! Identical requests are common — stock modules, re-deployments, fleets
//! of clients asking for the same processing — so [`crate::Controller::deploy`]
//! memoizes the *verdict* of each canonically-equal request: accept on a
//! given platform (with or without a sandbox), or reject with the original
//! typed error.
//!
//! # Key derivation
//!
//! The key captures everything the verdict depends on:
//!
//! * the **epoch** — a counter bumped whenever operator policy, the
//!   hardening level, or the installed topology changes in a way that can
//!   alter verdicts (`add_operator_policy`, an effective `set_hardening`,
//!   `kill`, or an explicit `invalidate_verdicts`);
//! * whether **compositional summaries** are enabled — verdicts agree
//!   with the whole-graph oracle, but the reports attached to an outcome
//!   may differ in detail (egress flow ordering), so verdicts never
//!   replay across a toggle;
//! * the tenant's **requester class** and sorted **registered addresses**
//!   (both drive the security rules);
//! * the **hardening policy** bits;
//! * the **module name** (requirements reference it in way-points);
//! * the **configuration** in canonical form — for Click configurations,
//!   [`innet_click::ClickConfig::canonical_text`] *before* `$SELF`
//!   binding, so the key does not depend on the address the controller
//!   will pick; for stock modules, the kind;
//! * the **requirement set**, one canonical rendering per requirement.
//!
//! Every variable-length field is length-prefixed, making the encoding
//! injective: no two distinct component tuples serialize to the same key.
//! The map is keyed by the full key string rather than a 64-bit digest so
//! a crafted hash collision cannot smuggle an unverified configuration in
//! behind a cached accept.
//!
//! # Soundness across commits
//!
//! A cached accept is reused under the same argument `deploy_batch`
//! already relies on for snapshot verification: addresses within one
//! platform pool are interchangeable, and committing more modules never
//! makes a previously verified placement unsound — except by exhausting
//! platform capacity, which the hit path re-checks against the module
//! table's used-slot count before committing (re-placing a
//! placement-independent verdict, falling back to full verification
//! otherwise, when the platform filled up). Anything else
//! that can flip a verdict — policy, hardening, module removal — bumps
//! the epoch of the [`innet_symnet::Memo`] the verdicts live in, which
//! discards every entry and refuses any verdict still being computed
//! under the old one.

use std::fmt::Write as _;

use crate::controller::{ClientAccount, DeployError, DeployResponse};
use crate::hardening::HardeningPolicy;
use crate::placement::RejectReason;
use crate::request::{ClientRequest, ModuleConfig};

/// The outcome memoized for one canonical request.
#[derive(Debug, Clone)]
pub(crate) enum CachedOutcome {
    /// The request verified end-to-end and was placed on `platform`.
    Accept {
        /// Name of the platform the verified placement chose.
        platform: String,
        /// Whether the sandbox wrapper was required.
        sandboxed: bool,
    },
    /// The request was refused with this error.
    Reject(DeployError),
}

/// One memoized verdict plus the checking cost the original evaluation
/// paid, credited to `check_ns_saved` accounting on every hit.
#[derive(Debug, Clone)]
pub(crate) struct CachedVerdict {
    /// The decision.
    pub outcome: CachedOutcome,
    /// Nanoseconds the original (miss) evaluation spent checking.
    pub check_ns: u64,
}

impl CachedOutcome {
    /// What the verdict memo should remember of a full evaluation's
    /// result, if anything.
    pub fn of(result: &Result<DeployResponse, DeployError>) -> Option<CachedOutcome> {
        match result {
            Ok(resp) => Some(CachedOutcome::Accept {
                platform: resp.platform.clone(),
                sandboxed: resp.sandboxed,
            }),
            // Not verdicts about the request itself — never memoized.
            Err(DeployError::UnknownClient(_)) | Err(DeployError::NoSuchModule(_)) => None,
            // A placement that failed purely on capacity (platform full,
            // no address pool) is a property of current occupancy, not of
            // the request — occupancy changes on every commit and `kill`
            // without an epoch bump, so memoizing it would keep replaying
            // the reject after space frees up. Verdict-class rejects
            // (security, lint, policy, requirements) stay memoized.
            Err(DeployError::NoFeasiblePlacement { reasons })
                if reasons
                    .iter()
                    .all(|(_, why)| RejectReason::classify(why).is_capacity()) =>
            {
                None
            }
            Err(e) => Some(CachedOutcome::Reject(e.clone())),
        }
    }
}

/// Appends a length-prefixed field, keeping the overall encoding
/// injective even when field values contain separator characters.
fn push_field(key: &mut String, tag: &str, value: &str) {
    let _ = write!(key, "{tag}[{}]={value};", value.len());
}

/// Builds the canonical cache key for one request. `epoch` must be read
/// from the same cache the key will be used against. The
/// compositional-summaries toggle joins the key: verdicts agree across
/// the toggle, but the attached reports may differ in detail (flow
/// ordering), so they never replay across it.
pub(crate) fn verdict_key(
    epoch: u64,
    request: &ClientRequest,
    account: &ClientAccount,
    hardening: HardeningPolicy,
    summaries: bool,
) -> String {
    let mut key = String::with_capacity(256);
    let _ = write!(
        key,
        "epoch={epoch};summaries={summaries};class={:?};",
        account.class
    );
    let mut registered = account.registered.clone();
    registered.sort_unstable();
    let _ = write!(key, "registered=");
    for addr in &registered {
        let _ = write!(key, "{addr},");
    }
    let _ = write!(
        key,
        ";hardening={},{};",
        hardening.ingress_filtering, hardening.ban_udp_reflection
    );
    push_field(&mut key, "module", &request.module_name);
    match &request.config {
        ModuleConfig::Click(cfg) => push_field(&mut key, "click", &cfg.canonical_text()),
        ModuleConfig::Stock(kind) => push_field(&mut key, "stock", &format!("{kind:?}")),
    }
    for req in &request.requirements {
        push_field(&mut key, "require", &format!("{req:?}"));
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use innet_symnet::RequesterClass;

    fn account() -> ClientAccount {
        ClientAccount {
            class: RequesterClass::Client,
            registered: vec!["172.16.15.133".parse().unwrap()],
        }
    }

    fn request(text: &str) -> ClientRequest {
        ClientRequest::parse(text).unwrap()
    }

    const REQ: &str = "module m:\nFromNetfront() -> IPFilter(allow udp) -> ToNetfront();\n\
                       reach from internet udp -> client";

    #[test]
    fn identical_requests_share_a_key() {
        let k1 = verdict_key(
            0,
            &request(REQ),
            &account(),
            HardeningPolicy::default(),
            true,
        );
        let k2 = verdict_key(
            0,
            &request(REQ),
            &account(),
            HardeningPolicy::default(),
            true,
        );
        assert_eq!(k1, k2);
    }

    #[test]
    fn every_component_separates_keys() {
        let base = verdict_key(
            0,
            &request(REQ),
            &account(),
            HardeningPolicy::default(),
            true,
        );
        // Epoch.
        assert_ne!(
            base,
            verdict_key(
                1,
                &request(REQ),
                &account(),
                HardeningPolicy::default(),
                true
            )
        );
        // Configuration.
        let other = request(
            "module m:\nFromNetfront() -> IPFilter(allow tcp) -> ToNetfront();\n\
             reach from internet udp -> client",
        );
        assert_ne!(
            base,
            verdict_key(0, &other, &account(), HardeningPolicy::default(), true)
        );
        // Requirements.
        let mut fewer = request(REQ);
        fewer.requirements.clear();
        assert_ne!(
            base,
            verdict_key(0, &fewer, &account(), HardeningPolicy::default(), true)
        );
        // Class.
        let third_party = ClientAccount {
            class: RequesterClass::ThirdParty,
            ..account()
        };
        assert_ne!(
            base,
            verdict_key(
                0,
                &request(REQ),
                &third_party,
                HardeningPolicy::default(),
                true
            )
        );
        // Registered addresses.
        let more_addrs = ClientAccount {
            registered: vec![
                "172.16.15.133".parse().unwrap(),
                "198.51.100.1".parse().unwrap(),
            ],
            ..account()
        };
        assert_ne!(
            base,
            verdict_key(
                0,
                &request(REQ),
                &more_addrs,
                HardeningPolicy::default(),
                true
            )
        );
        // Hardening.
        let hardened = HardeningPolicy {
            ingress_filtering: true,
            ban_udp_reflection: true,
        };
        assert_ne!(
            base,
            verdict_key(0, &request(REQ), &account(), hardened, true)
        );
        // Compositional-summaries toggle.
        assert_ne!(
            base,
            verdict_key(
                0,
                &request(REQ),
                &account(),
                HardeningPolicy::default(),
                false
            )
        );
    }

    #[test]
    fn registered_address_order_is_irrelevant() {
        let a = ClientAccount {
            class: RequesterClass::Client,
            registered: vec!["10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap()],
        };
        let b = ClientAccount {
            class: RequesterClass::Client,
            registered: vec!["10.0.0.2".parse().unwrap(), "10.0.0.1".parse().unwrap()],
        };
        assert_eq!(
            verdict_key(0, &request(REQ), &a, HardeningPolicy::default(), true),
            verdict_key(0, &request(REQ), &b, HardeningPolicy::default(), true)
        );
    }
}
