//! The Click configuration language: parser, AST, and programmatic builder.
//!
//! In-Net clients express processing requests in this language (paper §4.1).
//! The subset implemented here covers everything the paper uses:
//!
//! ```text
//! config     := (statement ';')*
//! statement  := declaration | connection
//! declaration:= NAME '::' CLASS [ '(' raw-args ')' ]
//! connection := endpoint ('->' endpoint)+
//! endpoint   := ['[' PORT ']'] ref ['[' PORT ']']
//! ref        := NAME                      -- previously declared element
//!             | NAME '::' CLASS '(..)'    -- inline declaration
//!             | CLASS '(..)'              -- anonymous element
//! ```
//!
//! Comments (`// ...` and `/* ... */`) are skipped by the lexer, which
//! reads the text once: names and argument lists borrow it until they
//! are stored. Class names start with an uppercase letter; element names
//! do not (Click's own convention).

use std::collections::HashMap;
use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

use crate::args::split_args;

/// A declared element instance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ElementDecl {
    /// Instance name (unique within a configuration).
    pub name: String,
    /// Element class, e.g. `IPFilter`.
    pub class: String,
    /// Raw arguments, already split on top-level commas.
    pub args: Vec<String>,
}

/// One endpoint of a connection: an element name plus a port number.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PortRef {
    /// Element instance name.
    pub element: String,
    /// Port index on that element.
    pub port: usize,
}

impl PortRef {
    /// Builds a port reference.
    pub fn new(element: impl Into<String>, port: usize) -> PortRef {
        PortRef {
            element: element.into(),
            port,
        }
    }
}

/// A directed edge from an output port to an input port.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Connection {
    /// Source output port.
    pub from: PortRef,
    /// Destination input port.
    pub to: PortRef,
}

/// Errors produced while parsing or validating a configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// Lexical or syntactic failure, with a human-readable description.
    Syntax(String),
    /// An element name was declared twice.
    DuplicateName(String),
    /// A connection references an element that was never declared.
    UnknownElement(String),
    /// Two connections leave the same output port (Click forbids this for
    /// push ports, and so do we).
    OutputFanout(PortRef),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Syntax(m) => write!(f, "syntax error: {m}"),
            ConfigError::DuplicateName(n) => write!(f, "duplicate element name '{n}'"),
            ConfigError::UnknownElement(n) => write!(f, "unknown element '{n}'"),
            ConfigError::OutputFanout(p) => {
                write!(f, "output [{}]{} connected twice", p.port, p.element)
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// A parsed Click configuration: element declarations plus connections.
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct ClickConfig {
    /// Declared elements, in declaration order.
    pub elements: Vec<ElementDecl>,
    /// Connections, in source order.
    pub connections: Vec<Connection>,
    anon_counter: usize,
    /// Memoized canonical text (see [`ClickConfig::canonical_text`]) —
    /// every admission-path memo keys on it, so it is rendered at most
    /// once per config instance. The mutating builder methods reset it
    /// and clones start unmemoized, so it cannot go stale through this
    /// type's API; code mutating the public fields of a config it did not
    /// just create must clone first.
    #[serde(skip)]
    pub(crate) canonical: std::sync::OnceLock<String>,
}

/// Clones restart with an empty canonical-text memo: the usual reason to
/// clone is to mutate (e.g. `$SELF` substitution), after which the
/// original's rendered text would be wrong for the copy.
impl Clone for ClickConfig {
    fn clone(&self) -> ClickConfig {
        ClickConfig {
            elements: self.elements.clone(),
            connections: self.connections.clone(),
            anon_counter: self.anon_counter,
            canonical: std::sync::OnceLock::new(),
        }
    }
}

/// Equality ignores the canonical-text memo (a derived value).
impl PartialEq for ClickConfig {
    fn eq(&self, other: &ClickConfig) -> bool {
        self.elements == other.elements
            && self.connections == other.connections
            && self.anon_counter == other.anon_counter
    }
}

impl Eq for ClickConfig {}

impl ClickConfig {
    /// An empty configuration (use the builder methods to populate it).
    pub fn new() -> ClickConfig {
        ClickConfig::default()
    }

    /// Declares an element; returns the instance name.
    pub fn add_element(
        &mut self,
        name: impl Into<String>,
        class: impl Into<String>,
        args: &[&str],
    ) -> String {
        let name = name.into();
        self.canonical.take();
        self.elements.push(ElementDecl {
            name: name.clone(),
            class: class.into(),
            args: args.iter().map(|s| s.to_string()).collect(),
        });
        name
    }

    /// Declares an element with a generated unique name.
    pub fn add_anon(&mut self, class: impl Into<String>, args: &[&str]) -> String {
        let class = class.into();
        self.anon_counter += 1;
        let name = format!("{}@{}", class, self.anon_counter);
        self.add_element(name, class, args)
    }

    /// Connects `[from_port]from -> [to_port]to`.
    pub fn connect(
        &mut self,
        from: impl Into<String>,
        from_port: usize,
        to: impl Into<String>,
        to_port: usize,
    ) {
        self.canonical.take();
        self.connections.push(Connection {
            from: PortRef::new(from, from_port),
            to: PortRef::new(to, to_port),
        });
    }

    /// Releases what the configuration holds only while it is admitted:
    /// the memoized canonical text and spare capacity. For a
    /// configuration kept as long as its module runs.
    pub fn shrink_to_fit(&mut self) {
        self.canonical.take();
        self.elements.shrink_to_fit();
        self.connections.shrink_to_fit();
        for e in &mut self.elements {
            e.args.shrink_to_fit();
        }
    }

    /// Looks up a declaration by instance name.
    pub fn element(&self, name: &str) -> Option<&ElementDecl> {
        self.elements.iter().find(|e| e.name == name)
    }

    /// Instance names of all elements of the given class.
    pub fn elements_of_class(&self, class: &str) -> Vec<&str> {
        self.elements
            .iter()
            .filter(|e| e.class == class)
            .map(|e| e.name.as_str())
            .collect()
    }

    /// Checks structural sanity: unique names, known references, no output
    /// fan-out. The first fault in statement order is reported: a name
    /// declared twice, then the first connection that names an unknown
    /// element or leaves an output port a second time. Names and output
    /// ports are compared by sorting indices, so a large configuration
    /// costs `n log n` comparisons and no copy of any name.
    pub fn validate(&self) -> Result<(), ConfigError> {
        // Ties order by index, so within a run of equal names the run's
        // second index is where a statement-order scan stops.
        let name = |i: usize| self.elements[i].name.as_str();
        let mut names: Vec<usize> = (0..self.elements.len()).collect();
        names.sort_unstable_by(|&a, &b| name(a).cmp(name(b)).then(a.cmp(&b)));
        let duplicate = names
            .windows(2)
            .filter(|w| name(w[0]) == name(w[1]))
            .map(|w| w[1])
            .min();
        if let Some(at) = duplicate {
            return Err(ConfigError::DuplicateName(name(at).to_owned()));
        }
        let known = |element: &str| names.binary_search_by(|&i| name(i).cmp(element)).is_ok();

        let from = |i: usize| &self.connections[i].from;
        let mut outs: Vec<usize> = (0..self.connections.len()).collect();
        outs.sort_unstable_by(|&a, &b| {
            let (x, y) = (from(a), from(b));
            (&x.element, x.port, a).cmp(&(&y.element, y.port, b))
        });
        let fanout = outs
            .windows(2)
            .filter(|w| from(w[0]) == from(w[1]))
            .map(|w| w[1])
            .min()
            .unwrap_or(usize::MAX);
        for c in self.connections.iter().take(fanout.saturating_add(1)) {
            for p in [&c.from, &c.to] {
                if !known(&p.element) {
                    return Err(ConfigError::UnknownElement(p.element.clone()));
                }
            }
        }
        match self.connections.get(fanout) {
            Some(c) => Err(ConfigError::OutputFanout(c.from.clone())),
            None => Ok(()),
        }
    }

    /// Imports all elements and connections of `other`, prefixing every
    /// instance name with `prefix/`.
    ///
    /// This is the primitive behind tenant consolidation (paper §5): a
    /// platform merges several clients' configurations into one VM-level
    /// configuration. No connections are added between the imported graph
    /// and existing elements — isolation is preserved by construction.
    pub fn merge_namespaced(&mut self, prefix: &str, other: &ClickConfig) {
        self.canonical.take();
        let rename = |n: &str| format!("{prefix}/{n}");
        for e in &other.elements {
            self.elements.push(ElementDecl {
                name: rename(&e.name),
                class: e.class.clone(),
                args: e.args.clone(),
            });
        }
        for c in &other.connections {
            self.connections.push(Connection {
                from: PortRef::new(rename(&c.from.element), c.from.port),
                to: PortRef::new(rename(&c.to.element), c.to.port),
            });
        }
    }

    /// Serializes back to Click-language text. `parse(to_text())` yields an
    /// equivalent configuration (a property test asserts this).
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        for e in &self.elements {
            let _ = writeln!(s, "{} :: {}({});", e.name, e.class, e.args.join(", "));
        }
        for c in &self.connections {
            let _ = writeln!(
                s,
                "{}[{}] -> [{}]{};",
                c.from.element, c.from.port, c.to.port, c.to.element
            );
        }
        s
    }

    /// Parses a Click-language configuration.
    pub fn parse(text: &str) -> Result<ClickConfig, ConfigError> {
        Parser::new(text)?.run()
    }
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

/// A token. Names and argument lists borrow the configuration's text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tok<'a> {
    Ident(&'a str),
    /// `(` raw argument text `)`: the span between the parentheses, with
    /// nesting. `commented` says a comment lies inside it.
    Args {
        raw: &'a str,
        commented: bool,
    },
    DoubleColon,
    Arrow,
    LBracket,
    RBracket,
    Semi,
    Number(usize),
}

/// The comment that starts at byte `i` of `text`, if one does: the byte
/// just past it, and whether it is a block comment. A line comment ends
/// before its newline; a block comment just past its `*/`.
fn comment_at(text: &str, i: usize) -> Result<Option<(usize, bool)>, ConfigError> {
    match text.as_bytes().get(i..i + 2) {
        Some(b"//") => Ok(Some((
            text[i..].find('\n').map_or(text.len(), |n| i + n),
            false,
        ))),
        Some(b"/*") => match text[i + 2..].find("*/") {
            Some(n) => Ok(Some((i + 2 + n + 2, true))),
            None => Err(ConfigError::Syntax("unterminated /* comment".into())),
        },
        _ => Ok(None),
    }
}

/// `raw` with its comments cut out: a block comment reads as one space,
/// a line comment as nothing (its newline stays). Only argument lists
/// that hold a comment are copied through here.
fn uncommented(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    let (mut from, mut i) = (0, 0);
    while let Some(k) = raw[i..].find('/') {
        let at = i + k;
        i = at + 1;
        // The lexer already found every comment in `raw` terminated.
        if let Ok(Some((end, block))) = comment_at(raw, at) {
            out.push_str(&raw[from..at]);
            if block {
                out.push(' ');
            }
            (from, i) = (end, end);
        }
    }
    out.push_str(&raw[from..]);
    out
}

/// Splits `text` into tokens in one pass, skipping whitespace and
/// comments. The whole text is lexed before any of it is parsed, so a
/// lexical fault anywhere outranks a syntactic one earlier on.
fn lex(text: &str) -> Result<Vec<Tok<'_>>, ConfigError> {
    let bytes = text.as_bytes();
    // A request's configuration is a few dozen tokens.
    let mut toks = Vec::with_capacity(32);
    let mut i = 0;
    while let Some(c) = text[i..].chars().next() {
        if let Some((end, _)) = comment_at(text, i)? {
            i = end;
            continue;
        }
        let next = i + c.len_utf8();
        let (tok, end) = match c {
            c if c.is_whitespace() => {
                i = next;
                continue;
            }
            ';' => (Tok::Semi, next),
            '[' => (Tok::LBracket, next),
            ']' => (Tok::RBracket, next),
            ':' if bytes.get(next) == Some(&b':') => (Tok::DoubleColon, next + 1),
            ':' => return Err(ConfigError::Syntax(format!("stray ':' at byte {i}"))),
            '-' if bytes.get(next) == Some(&b'>') => (Tok::Arrow, next + 1),
            '-' => return Err(ConfigError::Syntax(format!("stray '-' at byte {i}"))),
            '(' => {
                // Up to the matching close paren; parentheses inside a
                // comment do not count.
                let (mut depth, mut commented, mut j) = (1usize, false, next);
                loop {
                    match bytes.get(j) {
                        None => return Err(ConfigError::Syntax("unbalanced '('".into())),
                        Some(b'(') => depth += 1,
                        Some(b')') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        Some(b'/') => {
                            if let Some((end, _)) = comment_at(text, j)? {
                                commented = true;
                                j = end;
                                continue;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                let raw = &text[next..j];
                (Tok::Args { raw, commented }, j + 1)
            }
            c if c.is_ascii_digit() => {
                let end = i + bytes[i..].iter().take_while(|b| b.is_ascii_digit()).count();
                let n = &text[i..end];
                let v = n
                    .parse()
                    .map_err(|_| ConfigError::Syntax(format!("bad number '{n}'")))?;
                (Tok::Number(v), end)
            }
            c if c.is_alphabetic() || c == '_' => {
                // A `/` continues a name unless it opens a comment.
                let ends = |(k, d): &(usize, char)| {
                    let comment = matches!(bytes.get(next + k + 1), Some(b'/' | b'*'));
                    !(d.is_alphanumeric() || *d == '_' || *d == '@' || (*d == '/' && !comment))
                };
                let end = text[next..]
                    .char_indices()
                    .find(ends)
                    .map_or(text.len(), |(k, _)| next + k);
                (Tok::Ident(&text[i..end]), end)
            }
            other => {
                return Err(ConfigError::Syntax(format!(
                    "unexpected character '{other}' at byte {i}"
                )));
            }
        };
        toks.push(tok);
        i = end;
    }
    Ok(toks)
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    toks: Vec<Tok<'a>>,
    pos: usize,
    cfg: ClickConfig,
    /// Element index by name, for every name the text declares. A
    /// generated anonymous name (`Class@n`) is not in it; every one holds
    /// an `@`, so only a name with one is also looked for by a scan.
    declared: HashMap<&'a str, usize>,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Result<Parser<'a>, ConfigError> {
        let toks = lex(text)?;
        // Sized from the tokens: each `->` is one connection, and each
        // name is at most one element, a declaration's two names one.
        let count = |tok: fn(&Tok<'_>) -> bool| toks.iter().filter(|t| tok(t)).count();
        let arrows = count(|t| matches!(t, Tok::Arrow));
        let names = count(|t| matches!(t, Tok::Ident(_)));
        let declarations = count(|t| matches!(t, Tok::DoubleColon));
        let cfg = ClickConfig {
            elements: Vec::with_capacity(names.saturating_sub(declarations)),
            connections: Vec::with_capacity(arrows),
            ..ClickConfig::default()
        };
        Ok(Parser {
            toks,
            pos: 0,
            cfg,
            declared: HashMap::new(),
        })
    }

    fn peek(&self) -> Option<Tok<'a>> {
        self.toks.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<Tok<'a>> {
        let t = self.peek();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: Tok<'_>) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: Tok<'_>, what: &str) -> Result<(), ConfigError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(ConfigError::Syntax(format!(
                "expected {what}, found {:?}",
                self.peek()
            )))
        }
    }

    /// The index of the element named `name`, if one is declared yet.
    fn lookup(&self, name: &str) -> Option<usize> {
        match self.declared.get(name) {
            Some(&at) => Some(at),
            None if name.contains('@') => self.cfg.elements.iter().position(|e| e.name == name),
            None => None,
        }
    }

    fn run(mut self) -> Result<ClickConfig, ConfigError> {
        while self.peek().is_some() {
            if self.eat(Tok::Semi) {
                continue;
            }
            self.statement()?;
            self.expect(Tok::Semi, "';'")?;
        }
        self.cfg.validate()?;
        Ok(self.cfg)
    }

    /// Parses either a pure declaration or a connection chain.
    fn statement(&mut self) -> Result<(), ConfigError> {
        let (mut prev, _, mut out_port) = self.endpoint()?;
        while self.eat(Tok::Arrow) {
            let (next, in_port, next_out) = self.endpoint()?;
            let name = |at: usize| self.cfg.elements[at].name.clone();
            let connection = Connection {
                from: PortRef::new(name(prev), out_port),
                to: PortRef::new(name(next), in_port),
            };
            self.cfg.connections.push(connection);
            (prev, out_port) = (next, next_out);
        }
        Ok(())
    }

    /// Parses `[inport]? ref [outport]?`, returning
    /// `(element_index, in_port, out_port)`.
    fn endpoint(&mut self) -> Result<(usize, usize, usize), ConfigError> {
        let in_port = self.port()?;
        let at = self.element_ref()?;
        let out_port = self.port()?;
        Ok((at, in_port, out_port))
    }

    /// An optional `[n]`; port 0 when absent.
    fn port(&mut self) -> Result<usize, ConfigError> {
        if !self.eat(Tok::LBracket) {
            return Ok(0);
        }
        let n = match self.next() {
            Some(Tok::Number(n)) => n,
            other => {
                return Err(ConfigError::Syntax(format!(
                    "expected port number, found {other:?}"
                )))
            }
        };
        self.expect(Tok::RBracket, "']'")?;
        Ok(n)
    }

    /// Parses an element reference, registering declarations as needed;
    /// returns the element's index.
    fn element_ref(&mut self) -> Result<usize, ConfigError> {
        let Some(Tok::Ident(id)) = self.next() else {
            return Err(ConfigError::Syntax(format!(
                "expected element, found {:?}",
                self.toks.get(self.pos.saturating_sub(1))
            )));
        };

        // `name :: Class(args)` — declaration (inline or standalone).
        if self.eat(Tok::DoubleColon) {
            let Some(Tok::Ident(class)) = self.next() else {
                return Err(ConfigError::Syntax("expected class after '::'".into()));
            };
            let args = self.optional_args();
            if self.lookup(id).is_some() {
                return Err(ConfigError::DuplicateName(id.to_owned()));
            }
            self.declared.insert(id, self.cfg.elements.len());
            return Ok(self.push(id.to_owned(), class, args));
        }

        // `Class(args)` — anonymous element (class names are capitalized).
        // `-> Discard;` style: anonymous element without parens, unless
        // the name is declared.
        let looks_like_class = id.chars().next().is_some_and(|c| c.is_uppercase());
        if !(looks_like_class && matches!(self.peek(), Some(Tok::Args { .. }))) {
            match self.lookup(id) {
                Some(at) => return Ok(at),
                None if looks_like_class => {}
                None => return Err(ConfigError::UnknownElement(id.to_owned())),
            }
        }
        let args = self.optional_args();
        self.cfg.anon_counter += 1;
        let name = format!("{id}@{}", self.cfg.anon_counter);
        Ok(self.push(name, id, args))
    }

    /// Appends a declaration; returns its index.
    fn push(&mut self, name: String, class: &str, args: Vec<String>) -> usize {
        self.cfg.elements.push(ElementDecl {
            name,
            class: class.to_owned(),
            args,
        });
        self.cfg.elements.len() - 1
    }

    fn optional_args(&mut self) -> Vec<String> {
        match self.peek() {
            Some(Tok::Args { raw, commented }) => {
                self.pos += 1;
                if commented {
                    split_args(&uncommented(raw))
                } else {
                    split_args(raw)
                }
            }
            _ => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_paper_figure4() {
        let cfg = ClickConfig::parse(
            r#"
            // Batcher module from Figure 4.
            FromNetfront() ->
            IPFilter(allow udp dst port 1500) ->
            IPRewriter(pattern - - 172.16.15.133 - 0 0)
            -> TimedUnqueue(120, 100)
            -> dst :: ToNetfront();
            "#,
        )
        .unwrap();
        assert_eq!(cfg.elements.len(), 5);
        assert_eq!(cfg.connections.len(), 4);
        assert!(cfg.element("dst").is_some());
        assert_eq!(cfg.element("dst").unwrap().class, "ToNetfront");
        assert_eq!(cfg.elements_of_class("IPFilter").len(), 1);
    }

    #[test]
    fn declarations_then_connections() {
        let cfg = ClickConfig::parse(
            r#"
            src :: FromNetfront();
            f :: IPFilter(allow udp);
            snk :: ToNetfront();
            src -> f -> snk;
            "#,
        )
        .unwrap();
        assert_eq!(cfg.elements.len(), 3);
        assert_eq!(cfg.connections.len(), 2);
    }

    #[test]
    fn explicit_ports() {
        let cfg = ClickConfig::parse(
            r#"
            c :: Classifier(12/0800, -);
            d1 :: Discard;
            d2 :: Discard;
            c[0] -> d1;
            c[1] -> [0]d2;
            "#,
        )
        .unwrap();
        assert_eq!(cfg.connections[0].from.port, 0);
        assert_eq!(cfg.connections[1].from.port, 1);
        assert_eq!(cfg.connections[1].to.port, 0);
    }

    #[test]
    fn block_comments() {
        let cfg = ClickConfig::parse("/* hi */ a :: Discard; /* multi\nline */").unwrap();
        assert_eq!(cfg.elements.len(), 1);
    }

    #[test]
    fn duplicate_name_rejected() {
        let e = ClickConfig::parse("a :: Discard; a :: Discard;").unwrap_err();
        assert!(matches!(e, ConfigError::DuplicateName(_)));
    }

    #[test]
    fn unknown_reference_rejected() {
        let e = ClickConfig::parse("a :: Discard; a -> b;").unwrap_err();
        assert!(matches!(e, ConfigError::UnknownElement(_)));
    }

    #[test]
    fn fanout_rejected() {
        let e =
            ClickConfig::parse("a :: Tee(2); b :: Discard; c :: Discard; a[0] -> b; a[0] -> c;")
                .unwrap_err();
        assert!(matches!(e, ConfigError::OutputFanout(_)));
    }

    #[test]
    fn unterminated_comment_rejected() {
        assert!(matches!(
            ClickConfig::parse("/* nope"),
            Err(ConfigError::Syntax(_))
        ));
    }

    #[test]
    fn unbalanced_paren_rejected() {
        assert!(matches!(
            ClickConfig::parse("a :: IPFilter(allow udp;"),
            Err(ConfigError::Syntax(_))
        ));
    }

    #[test]
    fn to_text_roundtrip() {
        let cfg = ClickConfig::parse(
            "f :: IPFilter(allow udp dst port 1500, deny all); s :: ToNetfront(); f -> s;",
        )
        .unwrap();
        let again = ClickConfig::parse(&cfg.to_text()).unwrap();
        assert_eq!(cfg.elements, again.elements);
        assert_eq!(cfg.connections, again.connections);
    }

    #[test]
    fn merge_namespaced_isolates() {
        let client: ClickConfig =
            ClickConfig::parse("f :: IPFilter(allow udp); t :: ToNetfront(); f -> t;").unwrap();
        let mut host = ClickConfig::new();
        host.merge_namespaced("alice", &client);
        host.merge_namespaced("bob", &client);
        assert!(host.element("alice/f").is_some());
        assert!(host.element("bob/f").is_some());
        host.validate().unwrap();
        // No cross-tenant connections were introduced.
        for c in &host.connections {
            let from_tenant = c.from.element.split('/').next().unwrap();
            let to_tenant = c.to.element.split('/').next().unwrap();
            assert_eq!(from_tenant, to_tenant);
        }
    }

    #[test]
    fn builder_api() {
        let mut cfg = ClickConfig::new();
        cfg.add_element("src", "FromNetfront", &[]);
        let f = cfg.add_anon("IPFilter", &["allow udp"]);
        cfg.add_element("snk", "ToNetfront", &[]);
        cfg.connect("src", 0, &f, 0);
        cfg.connect(&f, 0, "snk", 0);
        cfg.validate().unwrap();
        let parsed = ClickConfig::parse(&cfg.to_text()).unwrap();
        assert_eq!(parsed.elements.len(), 3);
    }
}
