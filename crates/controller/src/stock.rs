//! Stock processing modules (paper §4.1).
//!
//! Stock modules are expressed as tiny Click configurations around
//! `Stock*` pseudo-elements with hand-written abstract models in
//! `innet-symnet`. The address argument is the module's assigned address,
//! so the configurations can only be produced once the controller has
//! allocated one.

use innet_click::ClickConfig;
use std::net::Ipv4Addr;

use crate::request::StockModule;

/// Builds the Click-level configuration of a stock module, parameterized
/// by the address the controller assigned to it. Built with the
/// programmatic builder, so it is infallible — no parse step, no panic.
pub fn stock_config(kind: StockModule, assigned: Ipv4Addr) -> ClickConfig {
    stock_with(kind, &assigned.to_string())
}

/// [`stock_config`] with its own address written as `own`: an address,
/// or `$SELF` for the module as a client would have written it.
pub(crate) fn stock_with(kind: StockModule, own: &str) -> ClickConfig {
    let (name, class, args): (&str, &str, Vec<&str>) = match kind {
        StockModule::ReverseHttpProxy => ("srv", "StockReverseProxy", vec![own]),
        StockModule::ExplicitProxy => ("srv", "StockExplicitProxy", vec![own]),
        StockModule::GeoDns => ("srv", "StockDNSServer", vec![own]),
        StockModule::X86Vm => ("vm", "StockX86VM", Vec::new()),
    };
    let mut cfg = ClickConfig::new();
    cfg.add_element("in", "FromNetfront", &[]);
    cfg.add_element(name, class, &args);
    cfg.add_element("out", "ToNetfront", &[]);
    cfg.connect("in", 0, name, 0);
    cfg.connect(name, 0, "out", 0);
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;
    use innet_symnet::{check_module, RequesterClass, SecurityContext, Verdict};

    fn check(kind: StockModule, class: RequesterClass) -> Verdict {
        let assigned = Ipv4Addr::new(203, 0, 113, 10);
        let cfg = stock_config(kind, assigned);
        check_module(
            &cfg,
            &SecurityContext {
                assigned_addr: assigned,
                registered: vec![Ipv4Addr::new(198, 51, 100, 1)],
                class,
            },
            &innet_click::Registry::standard(),
        )
        .unwrap()
        .verdict
    }

    #[test]
    fn reverse_proxy_safe_everywhere() {
        assert_eq!(
            check(StockModule::ReverseHttpProxy, RequesterClass::ThirdParty),
            Verdict::Safe
        );
        assert_eq!(
            check(StockModule::ReverseHttpProxy, RequesterClass::Client),
            Verdict::Safe
        );
    }

    #[test]
    fn dns_safe_everywhere() {
        assert_eq!(
            check(StockModule::GeoDns, RequesterClass::ThirdParty),
            Verdict::Safe
        );
    }

    #[test]
    fn explicit_proxy_by_class() {
        // An explicit proxy originates connections to request-chosen
        // destinations: fine for a client (§2.1 "such customers can also
        // deploy explicit proxies"), sandbox-worthy for a third party.
        assert_eq!(
            check(StockModule::ExplicitProxy, RequesterClass::Client),
            Verdict::Safe
        );
        assert_eq!(
            check(StockModule::ExplicitProxy, RequesterClass::ThirdParty),
            Verdict::SafeWithSandbox
        );
    }

    #[test]
    fn x86_always_sandboxed_for_tenants() {
        assert_eq!(
            check(StockModule::X86Vm, RequesterClass::ThirdParty),
            Verdict::SafeWithSandbox
        );
        assert_eq!(
            check(StockModule::X86Vm, RequesterClass::Client),
            Verdict::SafeWithSandbox
        );
    }
}
