//! Client processing requests (paper §4.1, Figure 4).

use std::borrow::Cow;
use std::net::Ipv4Addr;

use innet_analysis::bind_self;
use innet_click::ClickConfig;
use innet_policy::Requirement;
use serde::{Deserialize, Serialize};

use crate::stock::{stock_config, stock_with};

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
    /// The configuration with `$SELF` bound to `addr`: placeholders in
    /// Click configurations are substituted ([`bind_self`]) and stock
    /// templates instantiated.
    ///
    /// Admission binds twice. The security check reads the request bound
    /// to [`innet_analysis::SELF_SENTINEL`], an address no request may
    /// name (IN-L012), so a literal can never pass as the module's own
    /// address. Where the configuration cannot compare anything with its
    /// own address, that check is never more permissive than the check at
    /// any address the module could be given, which is the one property a
    /// replayed accept rests on. [`ModuleConfig::names_self`] says where
    /// it can. Each placement candidate then binds its own address for
    /// what is installed.
    pub(crate) fn materialize(&self, addr: Ipv4Addr) -> Cow<'_, ClickConfig> {
        match self {
            ModuleConfig::Click(c) => bind_self(c, addr),
            ModuleConfig::Stock(kind) => Cow::Owned(stock_config(*kind, addr)),
        }
    }

    /// [`ModuleConfig::materialize`], consuming the configuration: a Click
    /// configuration that names no `$SELF` is moved, not copied.
    pub(crate) fn into_materialized(self, addr: Ipv4Addr) -> ClickConfig {
        match self {
            ModuleConfig::Click(c) => match bind_self(&c, addr) {
                Cow::Owned(bound) => bound,
                Cow::Borrowed(_) => c,
            },
            ModuleConfig::Stock(kind) => stock_config(kind, addr),
        }
    }

    /// The configuration as a client would write it, `$SELF` unbound.
    pub(crate) fn template(&self) -> Cow<'_, ClickConfig> {
        match self {
            ModuleConfig::Click(c) => Cow::Borrowed(c),
            ModuleConfig::Stock(kind) => Cow::Owned(stock_with(*kind, "$SELF")),
        }
    }

    /// Whether the security verdict can depend on the address `$SELF` is
    /// bound to: a Click configuration that names `$SELF`. Its filters
    /// may compare a field with `$SELF` and with a literal, and the two
    /// meet at a pool address but never at the sentinel. So a
    /// flow that is cut at the sentinel may leave the module at the
    /// address it is installed at (DESIGN.md §5). A stock template only
    /// writes its own address as the source of its answers, after every
    /// comparison it makes, so its verdict is the same at every address.
    pub(crate) fn names_self(&self) -> bool {
        let ModuleConfig::Click(c) = self else {
            return false;
        };
        c.elements
            .iter()
            .any(|e| e.args.iter().any(|a| a.contains("$SELF")))
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
    /// A line whose first two words are `reach from` begins a
    /// requirement; subsequent indented/continuation lines (`-> …`,
    /// `const …`) extend it. Any other line belongs to the configuration,
    /// whose text is parsed where it lies in `text` when its lines follow
    /// one another there, and joined with `\n` otherwise.
    pub fn parse(text: &str) -> Result<ClientRequest, RequestParseError> {
        let err = |m: &str| RequestParseError {
            message: m.to_string(),
        };
        let mut module_name = "module";
        let mut stock: Option<StockModule> = None;
        // The configuration's lines: their span in `text` while each
        // follows the last after one `\n`, their join once one does not.
        let mut span: Option<(usize, usize)> = None;
        let mut joined: Option<String> = None;
        let mut reach_blocks: Vec<Cow<'_, str>> = Vec::new();

        for (at, raw) in lines_at(text) {
            let line = raw.trim();
            if line.is_empty() || line.starts_with("//") {
                continue;
            }
            if let Some(rest) = line.strip_prefix("module ") {
                module_name = rest.trim_end_matches(':').trim();
                continue;
            }
            if let Some(rest) = line.strip_prefix("stock ") {
                let mut parts = rest.splitn(2, ':');
                let name = parts.next().unwrap_or("stock").trim();
                let kind_s = parts.next().unwrap_or(name).trim();
                module_name = name;
                stock = Some(
                    StockModule::parse(kind_s)
                        .ok_or_else(|| err(&format!("unknown stock module '{kind_s}'")))?,
                );
                continue;
            }
            if opens_requirement(line) {
                reach_blocks.push(Cow::Borrowed(line));
            } else if let Some(last) = reach_blocks.last_mut() {
                // Continuation of the current requirement.
                let last = last.to_mut();
                last.push(' ');
                last.push_str(line);
            } else {
                let end = at + raw.len();
                match (&mut joined, span) {
                    (Some(joined), _) => {
                        joined.push('\n');
                        joined.push_str(raw);
                    }
                    (None, Some((start, last))) if at != last + 1 => {
                        joined = Some(format!("{}\n{raw}", &text[start..last]));
                    }
                    (None, Some((start, _))) => span = Some((start, end)),
                    (None, None) => span = Some((at, end)),
                }
            }
        }
        let config_text = joined
            .as_deref()
            .or_else(|| span.map(|(start, end)| &text[start..end]));

        let config = match (stock, config_text) {
            (Some(_), Some(_)) => {
                return Err(err("a stock request cannot also carry a configuration"));
            }
            (Some(kind), None) => ModuleConfig::Stock(kind),
            (None, None) => return Err(err("request carries no configuration")),
            (None, Some(text)) => ModuleConfig::Click(
                ClickConfig::parse(text).map_err(|e| err(&format!("bad configuration: {e}")))?,
            ),
        };

        let requirements = reach_blocks
            .iter()
            .map(|b| Requirement::parse(b).map_err(|e| err(&e.to_string())))
            .collect::<Result<Vec<_>, _>>()?;

        Ok(ClientRequest {
            module_name: module_name.to_owned(),
            config,
            requirements,
        })
    }
}

/// Whether a request line opens a requirement: its first two words are
/// `reach from`. A configuration line may name an element `reach…`.
fn opens_requirement(line: &str) -> bool {
    let mut words = line.split_whitespace();
    words.next() == Some("reach") && words.next() == Some("from")
}

/// The lines of `text` as [`str::lines`] cuts them, each with its byte
/// offset in `text`.
fn lines_at(text: &str) -> impl Iterator<Item = (usize, &str)> {
    let mut at = 0;
    text.split_inclusive('\n').map(move |piece| {
        let start = at;
        at += piece.len();
        let line = piece
            .strip_suffix('\n')
            .map_or(piece, |l| l.strip_suffix('\r').unwrap_or(l));
        (start, line)
    })
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
    fn an_element_named_reach_is_configuration() {
        let r = ClientRequest::parse(
            "module m:\nreacher :: Counter();\nFromNetfront() -> reacher -> ToNetfront();",
        )
        .unwrap();
        let ModuleConfig::Click(cfg) = &r.config else {
            panic!("expected a Click configuration");
        };
        assert_eq!(cfg.element("reacher").unwrap().class, "Counter");
        assert_eq!(cfg.connections.len(), 2);
        assert!(r.requirements.is_empty());
    }

    #[test]
    fn configuration_lines_apart_parse_as_their_join() {
        // A blank line, a comment line and CRLF endings between the
        // configuration's lines: the lines are joined, not sliced.
        let text = "module m:\r\nf :: IPFilter(allow\r\n\r\n// aside\r\n  udp);\r\n\
                    FromNetfront() -> f -> ToNetfront();\r\n";
        let r = ClientRequest::parse(text).unwrap();
        let ModuleConfig::Click(cfg) = &r.config else {
            panic!("expected a Click configuration");
        };
        assert_eq!(cfg.element("f").unwrap().args, vec!["allow\n  udp"]);
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
