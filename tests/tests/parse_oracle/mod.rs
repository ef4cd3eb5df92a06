//! The two-pass request reader, kept as a test oracle for the one-pass
//! one.
//!
//! Until the lexer read the text once, a request was read in copies:
//! `ClientRequest::parse` joined the configuration's lines into a new
//! string, `strip_comments` copied that char by char, the lexer built a
//! `String` per name and per argument list, `validate` hashed every name
//! and output port, and `canonical_text` sorted `(name, class, args)`
//! tuples of normalised copies. [`parse_config`], [`parse_request`],
//! [`validate`] and [`canonical_text`] are that code, unchanged but for
//! these names, reaching `ClickConfig` through its public API, and one fix: a
//! requirement opens only on the words `reach from`, so a configuration
//! line may name an element `reacher`.

use std::collections::HashMap;
use std::fmt::Write as _;

use innet::click::{ClickConfig, ConfigError, Connection, ElementDecl, PortRef};
use innet::controller::{ClientRequest, ModuleConfig, RequestParseError, StockModule};
use innet::policy::Requirement;

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    /// `(` raw argument text `)` — captured verbatim with nesting.
    Args(String),
    DoubleColon,
    Arrow,
    LBracket,
    RBracket,
    Semi,
    Number(usize),
}

fn strip_comments(text: &str) -> Result<String, ConfigError> {
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        if c == '/' {
            match chars.peek() {
                Some('/') => {
                    for d in chars.by_ref() {
                        if d == '\n' {
                            out.push('\n');
                            break;
                        }
                    }
                }
                Some('*') => {
                    chars.next();
                    let mut prev = '\0';
                    let mut closed = false;
                    for d in chars.by_ref() {
                        if prev == '*' && d == '/' {
                            closed = true;
                            break;
                        }
                        prev = d;
                    }
                    if !closed {
                        return Err(ConfigError::Syntax("unterminated /* comment".into()));
                    }
                    out.push(' ');
                }
                _ => out.push(c),
            }
        } else {
            out.push(c);
        }
    }
    Ok(out)
}

fn lex(text: &str) -> Result<Vec<Tok>, ConfigError> {
    let text = strip_comments(text)?;
    let mut toks = Vec::new();
    let mut chars = text.char_indices().peekable();
    while let Some((i, c)) = chars.next() {
        match c {
            c if c.is_whitespace() => {}
            ';' => toks.push(Tok::Semi),
            '[' => toks.push(Tok::LBracket),
            ']' => toks.push(Tok::RBracket),
            ':' => {
                if chars.peek().map(|&(_, d)| d) == Some(':') {
                    chars.next();
                    toks.push(Tok::DoubleColon);
                } else {
                    return Err(ConfigError::Syntax(format!("stray ':' at byte {i}")));
                }
            }
            '-' => {
                if chars.peek().map(|&(_, d)| d) == Some('>') {
                    chars.next();
                    toks.push(Tok::Arrow);
                } else {
                    return Err(ConfigError::Syntax(format!("stray '-' at byte {i}")));
                }
            }
            '(' => {
                // Capture raw args up to the matching close paren.
                let mut depth = 1usize;
                let mut raw = String::new();
                for (_, d) in chars.by_ref() {
                    match d {
                        '(' => {
                            depth += 1;
                            raw.push(d);
                        }
                        ')' => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                            raw.push(d);
                        }
                        _ => raw.push(d),
                    }
                }
                if depth != 0 {
                    return Err(ConfigError::Syntax("unbalanced '('".into()));
                }
                toks.push(Tok::Args(raw));
            }
            c if c.is_ascii_digit() => {
                let mut n = String::from(c);
                while let Some(&(_, d)) = chars.peek() {
                    if d.is_ascii_digit() {
                        n.push(d);
                        chars.next();
                    } else {
                        break;
                    }
                }
                let v = n
                    .parse()
                    .map_err(|_| ConfigError::Syntax(format!("bad number '{n}'")))?;
                toks.push(Tok::Number(v));
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut id = String::from(c);
                while let Some(&(_, d)) = chars.peek() {
                    if d.is_alphanumeric() || d == '_' || d == '@' || d == '/' {
                        id.push(d);
                        chars.next();
                    } else {
                        break;
                    }
                }
                toks.push(Tok::Ident(id));
            }
            other => {
                return Err(ConfigError::Syntax(format!(
                    "unexpected character '{other}' at byte {i}"
                )));
            }
        }
    }
    Ok(toks)
}

/// Splits a raw argument string on top-level commas, trimming whitespace.
fn split_args(raw: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut in_quote = false;
    let mut cur = String::new();
    for c in raw.chars() {
        match c {
            '"' => {
                in_quote = !in_quote;
                cur.push(c);
            }
            '(' if !in_quote => {
                depth += 1;
                cur.push(c);
            }
            ')' if !in_quote => {
                depth = depth.saturating_sub(1);
                cur.push(c);
            }
            ',' if depth == 0 && !in_quote => {
                out.push(cur.trim().to_string());
                cur.clear();
            }
            _ => cur.push(c),
        }
    }
    let last = cur.trim();
    if !last.is_empty() {
        out.push(last.to_string());
    }
    // `Foo()` and `Foo( )` both mean "no arguments".
    if out.len() == 1 && out[0].is_empty() {
        out.clear();
    }
    out
}

/// The parent's `ClickConfig::validate`.
pub fn validate(cfg: &ClickConfig) -> Result<(), ConfigError> {
    let mut seen = HashMap::new();
    for e in &cfg.elements {
        if seen.insert(e.name.as_str(), ()).is_some() {
            return Err(ConfigError::DuplicateName(e.name.clone()));
        }
    }
    let mut outs = HashMap::new();
    for c in &cfg.connections {
        for p in [&c.from, &c.to] {
            if !seen.contains_key(p.element.as_str()) {
                return Err(ConfigError::UnknownElement(p.element.clone()));
            }
        }
        if outs.insert(c.from.clone(), ()).is_some() {
            return Err(ConfigError::OutputFanout(c.from.clone()));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// The parent's `ClickConfig::parse`.
pub fn parse_config(text: &str) -> Result<ClickConfig, ConfigError> {
    Parser::new(text)?.run()
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
    cfg: ClickConfig,
}

impl Parser {
    fn new(text: &str) -> Result<Parser, ConfigError> {
        Ok(Parser {
            toks: lex(text)?,
            pos: 0,
            cfg: ClickConfig::new(),
        })
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: Tok, what: &str) -> Result<(), ConfigError> {
        if self.eat(&t) {
            Ok(())
        } else {
            Err(ConfigError::Syntax(format!(
                "expected {what}, found {:?}",
                self.peek()
            )))
        }
    }

    fn run(mut self) -> Result<ClickConfig, ConfigError> {
        while self.peek().is_some() {
            if self.eat(&Tok::Semi) {
                continue;
            }
            self.statement()?;
            self.expect(Tok::Semi, "';'")?;
        }
        validate(&self.cfg)?;
        Ok(self.cfg)
    }

    /// Parses either a pure declaration or a connection chain.
    fn statement(&mut self) -> Result<(), ConfigError> {
        let first = self.endpoint()?;
        if self.peek() != Some(&Tok::Arrow) {
            // A lone declaration/reference statement.
            return Ok(());
        }
        let mut prev = first;
        while self.eat(&Tok::Arrow) {
            let next = self.endpoint()?;
            self.cfg.connections.push(Connection {
                from: PortRef::new(prev.0.clone(), prev.2),
                to: PortRef::new(next.0.clone(), next.1),
            });
            prev = next;
        }
        Ok(())
    }

    /// Parses `[inport]? ref [outport]?`, returning
    /// `(element_name, in_port, out_port)`.
    fn endpoint(&mut self) -> Result<(String, usize, usize), ConfigError> {
        let in_port = if self.eat(&Tok::LBracket) {
            let n = self.number()?;
            self.expect(Tok::RBracket, "']'")?;
            n
        } else {
            0
        };
        let name = self.element_ref()?;
        let out_port = if self.eat(&Tok::LBracket) {
            let n = self.number()?;
            self.expect(Tok::RBracket, "']'")?;
            n
        } else {
            0
        };
        Ok((name, in_port, out_port))
    }

    fn number(&mut self) -> Result<usize, ConfigError> {
        match self.next() {
            Some(Tok::Number(n)) => Ok(n),
            other => Err(ConfigError::Syntax(format!(
                "expected port number, found {other:?}"
            ))),
        }
    }

    /// Parses an element reference, registering declarations as needed.
    fn element_ref(&mut self) -> Result<String, ConfigError> {
        let Some(Tok::Ident(id)) = self.next() else {
            return Err(ConfigError::Syntax(format!(
                "expected element, found {:?}",
                self.toks.get(self.pos.saturating_sub(1))
            )));
        };

        // `name :: Class(args)` — declaration (inline or standalone).
        if self.peek() == Some(&Tok::DoubleColon) {
            self.pos += 1;
            let Some(Tok::Ident(class)) = self.next() else {
                return Err(ConfigError::Syntax("expected class after '::'".into()));
            };
            let args = self.optional_args();
            if self.cfg.element(&id).is_some() {
                return Err(ConfigError::DuplicateName(id));
            }
            self.cfg.elements.push(ElementDecl {
                name: id.clone(),
                class,
                args,
            });
            return Ok(id);
        }

        // `Class(args)` — anonymous element (class names are capitalized).
        let looks_like_class = id.chars().next().is_some_and(|c| c.is_uppercase());
        if looks_like_class && matches!(self.peek(), Some(Tok::Args(_))) {
            let args = self.optional_args();
            return Ok(self
                .cfg
                .add_anon(id, &args.iter().map(|s| s.as_str()).collect::<Vec<_>>()));
        }
        if looks_like_class && self.cfg.element(&id).is_none() {
            // `-> Discard;` style: anonymous element without parens.
            return Ok(self.cfg.add_anon(id, &[]));
        }

        // Otherwise: a reference to a previously declared element.
        if self.cfg.element(&id).is_none() {
            return Err(ConfigError::UnknownElement(id));
        }
        Ok(id)
    }

    fn optional_args(&mut self) -> Vec<String> {
        if let Some(Tok::Args(raw)) = self.peek() {
            let raw = raw.clone();
            self.pos += 1;
            split_args(&raw)
        } else {
            Vec::new()
        }
    }
}

// ---------------------------------------------------------------------------
// Canonical text
// ---------------------------------------------------------------------------

fn normalize_arg(arg: &str) -> String {
    let mut out = String::with_capacity(arg.len());
    for word in arg.split_whitespace() {
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(word);
    }
    out
}

/// The parent's `ClickConfig::canonical_text`.
pub fn canonical_text(cfg: &ClickConfig) -> String {
    let mut elements: Vec<(&str, &str, Vec<String>)> = cfg
        .elements
        .iter()
        .map(|e| {
            (
                e.name.as_str(),
                e.class.as_str(),
                e.args.iter().map(|a| normalize_arg(a)).collect(),
            )
        })
        .collect();
    elements.sort();
    let mut connections: Vec<(&str, usize, &str, usize)> = cfg
        .connections
        .iter()
        .map(|c| {
            (
                c.from.element.as_str(),
                c.from.port,
                c.to.element.as_str(),
                c.to.port,
            )
        })
        .collect();
    connections.sort();

    let mut s = String::new();
    for (name, class, args) in &elements {
        let _ = writeln!(s, "{} :: {}({});", name, class, args.join(", "));
    }
    for (from, from_port, to, to_port) in &connections {
        let _ = writeln!(s, "{from}[{from_port}] -> [{to_port}]{to};");
    }
    s
}

// ---------------------------------------------------------------------------
// Request
// ---------------------------------------------------------------------------

/// The parent's `ClientRequest::parse`, with the `reach from` fix.
pub fn parse_request(text: &str) -> Result<ClientRequest, RequestParseError> {
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
        let mut words = line.split_whitespace();
        if words.next() == Some("reach") && words.next() == Some("from") {
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
                parse_config(&text).map_err(|e| err(&format!("bad configuration: {e}")))?,
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
