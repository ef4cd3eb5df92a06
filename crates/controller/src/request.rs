//! Client processing requests (paper §4.1, Figure 4).

use std::borrow::Cow;
use std::net::Ipv4Addr;

use innet_click::ClickConfig;
use innet_policy::Requirement;
use serde::{Deserialize, Serialize};

use crate::stock::stock_config;

/// A pre-defined stock processing module offered by the controller
/// (paper §4.1: "a reverse-HTTP proxy appliance, an explicit proxy …, a
/// DNS server that uses geolocation …, and an arbitrary x86 VM").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StockModule {
    /// Reverse HTTP proxy (squid-style).
    ReverseHttpProxy,
    /// Explicit forward proxy.
    ExplicitProxy,
    /// Geolocation DNS server.
    GeoDns,
    /// An arbitrary x86 virtual machine (opaque; always sandboxed for
    /// tenants).
    X86Vm,
}

impl StockModule {
    /// Parses a stock-module keyword.
    pub fn parse(s: &str) -> Option<StockModule> {
        match s.trim() {
            "reverse-http-proxy" | "reverse-proxy" => Some(StockModule::ReverseHttpProxy),
            "explicit-proxy" => Some(StockModule::ExplicitProxy),
            "geo-dns" | "dns" => Some(StockModule::GeoDns),
            "x86-vm" | "x86" => Some(StockModule::X86Vm),
            _ => None,
        }
    }
}

/// The processing a client asks to instantiate.
#[derive(Debug, Clone, PartialEq)]
pub enum ModuleConfig {
    /// A Click configuration of well-known elements.
    Click(ClickConfig),
    /// A stock module.
    Stock(StockModule),
}

impl ModuleConfig {
    /// The configuration for a concrete assigned address: binds `$SELF`
    /// placeholders in Click configurations and instantiates stock
    /// templates. Configurations without `$SELF` are address-independent
    /// and borrowed as-is — the common case on the admission hot path,
    /// where the clone would be pure overhead.
    pub(crate) fn materialize(&self, addr: Ipv4Addr) -> Cow<'_, ClickConfig> {
        let c = match self {
            ModuleConfig::Click(c) => c,
            ModuleConfig::Stock(kind) => return Cow::Owned(stock_config(*kind, addr)),
        };
        let has_self = |a: &String| a.contains("$SELF");
        if !c.elements.iter().any(|e| e.args.iter().any(has_self)) {
            return Cow::Borrowed(c);
        }
        let mut c = c.clone();
        for a in c.elements.iter_mut().flat_map(|e| &mut e.args) {
            if has_self(a) {
                *a = a.replace("$SELF", &addr.to_string());
            }
        }
        Cow::Owned(c)
    }
}

/// A full client request: one processing module plus the requirements
/// that must hold after installation.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientRequest {
    /// Module name (used in `module:element:port` way-points).
    pub module_name: String,
    /// The processing to instantiate.
    pub config: ModuleConfig,
    /// The client's requirements.
    pub requirements: Vec<Requirement>,
}

/// Error produced when a request fails to parse.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestParseError {
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for RequestParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "request parse error: {}", self.message)
    }
}

impl std::error::Error for RequestParseError {}

impl ClientRequest {
    /// A request for a Click configuration, with no requirements yet.
    /// Chain [`ClientRequest::require`] or [`ClientRequest::requires_str`]
    /// to add them:
    ///
    /// ```
    /// use innet_controller::ClientRequest;
    /// use innet_click::ClickConfig;
    ///
    /// let cfg = ClickConfig::parse("FromNetfront() -> Discard();").unwrap();
    /// let req = ClientRequest::click("drop", cfg)
    ///     .requires_str("reach from internet udp -> client")
    ///     .unwrap();
    /// assert_eq!(req.module_name, "drop");
    /// assert_eq!(req.requirements.len(), 1);
    /// ```
    pub fn click(module_name: impl Into<String>, config: ClickConfig) -> ClientRequest {
        ClientRequest {
            module_name: module_name.into(),
            config: ModuleConfig::Click(config),
            requirements: Vec::new(),
        }
    }

    /// A request for a stock module, with no requirements yet.
    pub fn stock(module_name: impl Into<String>, module: StockModule) -> ClientRequest {
        ClientRequest {
            module_name: module_name.into(),
            config: ModuleConfig::Stock(module),
            requirements: Vec::new(),
        }
    }

    /// Adds one already-built requirement (chainable).
    pub fn require(mut self, requirement: Requirement) -> ClientRequest {
        self.requirements.push(requirement);
        self
    }

    /// Parses and adds one `reach …` requirement line (chainable; fails
    /// with the same errors [`ClientRequest::parse`] would report).
    pub fn requires_str(mut self, reach: &str) -> Result<ClientRequest, RequestParseError> {
        let req = Requirement::parse(reach).map_err(|e| RequestParseError {
            message: e.to_string(),
        })?;
        self.requirements.push(req);
        Ok(self)
    }

    /// Parses the textual request format modeled on the paper's Figure 4:
    ///
    /// ```text
    /// module <name>:            -- or:  stock <name>: <kind>
    /// <Click configuration ...>
    ///
    /// reach from <node> ... [const fields]
    /// reach from ...
    /// ```
    ///
    /// Lines starting with `reach` begin a requirement; subsequent
    /// indented/continuation lines (`-> …`, `const …`) extend it.
    pub fn parse(text: &str) -> Result<ClientRequest, RequestParseError> {
        let err = |m: &str| RequestParseError {
            message: m.to_string(),
        };
        let mut module_name = String::from("module");
        let mut stock: Option<StockModule> = None;
        let mut config_lines: Vec<&str> = Vec::new();
        let mut reach_blocks: Vec<String> = Vec::new();

        for raw in text.lines() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with("//") {
                continue;
            }
            if let Some(rest) = line.strip_prefix("module ") {
                module_name = rest.trim_end_matches(':').trim().to_string();
                continue;
            }
            if let Some(rest) = line.strip_prefix("stock ") {
                let mut parts = rest.splitn(2, ':');
                let name = parts.next().unwrap_or("stock").trim();
                let kind_s = parts.next().unwrap_or(name).trim();
                module_name = name.to_string();
                stock = Some(
                    StockModule::parse(kind_s)
                        .ok_or_else(|| err(&format!("unknown stock module '{kind_s}'")))?,
                );
                continue;
            }
            if line.starts_with("reach") {
                reach_blocks.push(line.to_string());
            } else if let Some(last) = reach_blocks.last_mut() {
                // Continuation of the current requirement.
                last.push(' ');
                last.push_str(line);
            } else {
                config_lines.push(raw);
            }
        }

        let config = match stock {
            Some(kind) => {
                if !config_lines.is_empty() {
                    return Err(err("a stock request cannot also carry a configuration"));
                }
                ModuleConfig::Stock(kind)
            }
            None => {
                let text = config_lines.join("\n");
                if text.trim().is_empty() {
                    return Err(err("request carries no configuration"));
                }
                ModuleConfig::Click(
                    ClickConfig::parse(&text)
                        .map_err(|e| err(&format!("bad configuration: {e}")))?,
                )
            }
        };

        let requirements = reach_blocks
            .iter()
            .map(|b| Requirement::parse(b).map_err(|e| err(&e.to_string())))
            .collect::<Result<Vec<_>, _>>()?;

        Ok(ClientRequest {
            module_name,
            config,
            requirements,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use innet_policy::NodeRef;

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

    #[test]
    fn parse_figure4() {
        let r = ClientRequest::parse(FIG4).unwrap();
        assert_eq!(r.module_name, "batcher");
        let ModuleConfig::Click(cfg) = &r.config else {
            panic!("expected a Click configuration");
        };
        assert_eq!(cfg.elements.len(), 5);
        assert_eq!(r.requirements.len(), 1);
        assert_eq!(r.requirements[0].from, NodeRef::Internet);
        assert_eq!(r.requirements[0].hops[1].const_fields.len(), 3);
    }

    #[test]
    fn parse_stock() {
        let r = ClientRequest::parse(
            "stock cache: reverse-http-proxy\n\nreach from internet tcp -> client",
        )
        .unwrap();
        assert_eq!(r.module_name, "cache");
        assert_eq!(r.config, ModuleConfig::Stock(StockModule::ReverseHttpProxy));
        assert_eq!(r.requirements.len(), 1);
    }

    #[test]
    fn multiple_requirements() {
        let r = ClientRequest::parse(
            "module m:\nFromNetfront() -> Discard();\n\
             reach from internet udp -> client\n\
             reach from client -> internet",
        )
        .unwrap();
        assert_eq!(r.requirements.len(), 2);
    }

    #[test]
    fn errors() {
        assert!(ClientRequest::parse("").is_err());
        assert!(ClientRequest::parse("stock x: frobnicator").is_err());
        assert!(ClientRequest::parse("module m:\nNotAClass(").is_err());
        assert!(
            ClientRequest::parse("stock x: x86-vm\nFromNetfront() -> Discard();").is_err(),
            "stock + config is contradictory"
        );
    }

    #[test]
    fn builder_matches_parser() {
        // The chained builder and the textual parser produce the same
        // request value.
        let parsed = ClientRequest::parse(
            "module m:\nFromNetfront() -> Discard();\n\
             reach from internet udp -> client",
        )
        .unwrap();
        let cfg = ClickConfig::parse("FromNetfront() -> Discard();").unwrap();
        let built = ClientRequest::click("m", cfg)
            .requires_str("reach from internet udp -> client")
            .unwrap();
        assert_eq!(built, parsed);
    }

    #[test]
    fn builder_stock_and_require() {
        let req = Requirement::parse("reach from internet tcp -> client").unwrap();
        let r = ClientRequest::stock("cache", StockModule::ReverseHttpProxy).require(req);
        assert_eq!(r.module_name, "cache");
        assert_eq!(r.config, ModuleConfig::Stock(StockModule::ReverseHttpProxy));
        assert_eq!(r.requirements.len(), 1);
        // A malformed reach line surfaces the parse error.
        assert!(ClientRequest::stock("c", StockModule::GeoDns)
            .requires_str("reach nonsense here")
            .is_err());
    }

    #[test]
    fn stock_keywords() {
        assert_eq!(
            StockModule::parse("reverse-proxy"),
            Some(StockModule::ReverseHttpProxy)
        );
        assert_eq!(StockModule::parse("geo-dns"), Some(StockModule::GeoDns));
        assert_eq!(StockModule::parse("x86"), Some(StockModule::X86Vm));
        assert_eq!(
            StockModule::parse("explicit-proxy"),
            Some(StockModule::ExplicitProxy)
        );
        assert_eq!(StockModule::parse("nope"), None);
    }
}
