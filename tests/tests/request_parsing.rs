//! The one-pass request reader against the two-pass one it replaced
//! (`parse_oracle`). On generated configurations and requests, on
//! `garbage_requests`' hostile fragments and on every prefix of valid
//! requests, the two must give equal `ClickConfig`s (elements,
//! connections, anonymous-name counter), the same canonical text, equal
//! `ClientRequest`s and the same `ConfigError` variant, and neither may
//! panic. Syntax errors are compared by variant only: their messages
//! name tokens and byte offsets, which the two lexers spell differently.

mod hostile;
mod parse_oracle;

use std::panic::catch_unwind;

use innet::click::{ClickConfig, ConfigError};
use innet::controller::{ClientRequest, ModuleConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Seed of the generated cases, printed by every test that uses it.
const SEED: u64 = 20_150_421;
/// Generated configurations (and as many requests).
const CASES: usize = 1_500;

/// How many inputs both readers accepted and both refused.
#[derive(Debug, Default)]
struct Tally {
    accepted: usize,
    refused: usize,
}

/// Both readers on one configuration text.
fn agree_config(text: &str, tally: &mut Tally) {
    let old = catch_unwind(|| parse_oracle::parse_config(text))
        .unwrap_or_else(|_| panic!("oracle panicked on {text:?}"));
    let new = catch_unwind(|| ClickConfig::parse(text))
        .unwrap_or_else(|_| panic!("panicked on {text:?}"));
    match (old, new) {
        (Ok(old), Ok(new)) => {
            assert_eq!(old, new, "configurations differ on {text:?}");
            let canonical = parse_oracle::canonical_text(&old);
            assert_eq!(
                canonical,
                new.canonical_text(),
                "canonical text of {text:?}"
            );
            tally.accepted += 1;
        }
        (Err(ConfigError::Syntax(_)), Err(ConfigError::Syntax(_))) => tally.refused += 1,
        (Err(old), Err(new)) => {
            assert_eq!(old, new, "errors differ on {text:?}");
            tally.refused += 1;
        }
        (old, new) => panic!("readers disagree on {text:?}: {old:?} against {new:?}"),
    }
}

/// Both readers on one request text.
fn agree_request(text: &str, tally: &mut Tally) {
    let old = catch_unwind(|| parse_oracle::parse_request(text))
        .unwrap_or_else(|_| panic!("oracle panicked on {text:?}"));
    let new = catch_unwind(|| ClientRequest::parse(text))
        .unwrap_or_else(|_| panic!("panicked on {text:?}"));
    match (old, new) {
        (Ok(old), Ok(new)) => {
            assert_eq!(old, new, "requests differ on {text:?}");
            if let (ModuleConfig::Click(old), ModuleConfig::Click(new)) = (&old.config, &new.config)
            {
                let canonical = parse_oracle::canonical_text(old);
                assert_eq!(
                    canonical,
                    new.canonical_text(),
                    "canonical text of {text:?}"
                );
            }
            tally.accepted += 1;
        }
        (Err(old), Err(new)) => {
            let syntax = "bad configuration: syntax error";
            if !(old.message.starts_with(syntax) && new.message.starts_with(syntax)) {
                assert_eq!(old, new, "errors differ on {text:?}");
            }
            tally.refused += 1;
        }
        (old, new) => panic!("readers disagree on {text:?}: {old:?} against {new:?}"),
    }
}

const NAMES: &[&str] = &[
    "a",
    "src",
    "f",
    "snk",
    "reacher",
    "x_1",
    "ünï",
    "名前",
    "q/r",
    "n@2",
    "Counter@1",
    "_t",
];
const CLASSES: &[&str] = &[
    "FromNetfront",
    "ToNetfront",
    "Counter",
    "Discard",
    "IPFilter",
    "Tee",
    "Paint",
    "IPRewriter",
    "Classifier",
    "Ärger",
];
const ARGS: &[&str] = &[
    "allow udp",
    "allow  udp\tdst port 1500",
    "12/0800",
    "-",
    "$SELF",
    "pattern - - $SELF - 0 0",
    "\"a, b\"",
    "f(x, (y, z))",
    "ünï grüße",
    "名 前",
    "7",
    "  spaced   out  ",
];
/// What may separate two tokens: whitespace (CRLF and non-ASCII too)
/// and comments.
const GAPS: &[&str] = &[
    "",
    " ",
    "  ",
    "\n",
    "\r\n",
    "\t",
    "\u{a0}",
    " // line\n",
    "/* block */",
    "/* multi\r\nline */",
    "/**/",
    "//\r\n",
];
/// What may sit around an argument inside its list.
const ARG_GAPS: &[&str] = &[
    "",
    " ",
    "  ",
    "\n ",
    "\r\n",
    "\t",
    " /* ) ( , */ ",
    " // ) ,\n",
    "/**/",
];
/// Characters a mutation inserts.
const NOISE: &[char] = &[
    '(', ')', ';', ':', '-', '>', '[', ']', '/', '*', '@', '$', '"', ',', 'x', '9', 'ü', '\r', '\n',
];

struct Gen {
    rng: StdRng,
}

impl Gen {
    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.rng.gen_range(0..from.len())]
    }

    fn gap(&mut self) -> &'static str {
        if self.rng.gen_bool(0.5) {
            " "
        } else {
            self.pick(GAPS)
        }
    }

    fn args(&mut self) -> String {
        let mut s = String::from("(");
        for i in 0..self.rng.gen_range(0..4) {
            if i > 0 {
                s.push(',');
            }
            s.push_str(self.pick(ARG_GAPS));
            let arg = match self.rng.gen_range(0..10) {
                0 => self.pick(hostile::HOSTILE_IP_RULES),
                1 => self.pick(hostile::HOSTILE_ARGS),
                _ => self.pick(ARGS),
            };
            s.push_str(arg);
            s.push_str(self.pick(ARG_GAPS));
        }
        s.push(')');
        s
    }

    fn port(&mut self) -> String {
        match self.rng.gen_range(0..60) {
            0 => "99999999999999999999999".to_string(),
            n => (n % 3).to_string(),
        }
    }

    /// A name to declare: mostly a fresh one.
    fn fresh(&mut self, declared: &[String]) -> String {
        let name = self.pick(NAMES);
        if self.rng.gen_bool(0.9) && declared.iter().any(|d| d == name) {
            format!("{name}{}", declared.len())
        } else {
            name.to_string()
        }
    }

    /// A declaration, `name :: Class` with or without arguments.
    fn declaration(&mut self, declared: &mut Vec<String>) -> String {
        let name = self.fresh(declared);
        declared.push(name.clone());
        let args = if self.rng.gen_bool(0.8) {
            self.args()
        } else {
            String::new()
        };
        format!(
            "{name}{}::{}{}{args}",
            self.gap(),
            self.gap(),
            self.pick(CLASSES)
        )
    }

    fn endpoint(&mut self, declared: &mut Vec<String>) -> String {
        let mut s = String::new();
        if self.rng.gen_bool(0.2) {
            s += &format!("[{}]{}", self.port(), self.gap());
        }
        match self.rng.gen_range(0..20) {
            0..=4 if !declared.is_empty() => {
                s += &declared[self.rng.gen_range(0..declared.len())].clone();
            }
            0..=9 => s += &format!("{}{}", self.pick(CLASSES), self.args()),
            10..=13 => s += self.pick(CLASSES),
            14 => s += self.pick(NAMES),
            _ => s += &self.declaration(declared),
        }
        if self.rng.gen_bool(0.2) {
            s += &format!("{}[{}]", self.gap(), self.port());
        }
        s
    }

    fn config(&mut self) -> String {
        let mut declared = Vec::new();
        let mut s = String::new();
        for _ in 0..self.rng.gen_range(1..6) {
            s += self.gap();
            if self.rng.gen_bool(0.3) {
                s += &self.declaration(&mut declared);
            } else {
                s += &self.endpoint(&mut declared);
                for _ in 0..self.rng.gen_range(1..4) {
                    s += &format!("{}->{}", self.gap(), self.gap());
                    s += &self.endpoint(&mut declared);
                }
            }
            s += self.gap();
            s.push(';');
        }
        s += self.gap();
        if self.rng.gen_bool(0.25) {
            self.mutate(&mut s);
        }
        s
    }

    /// Truncates, deletes one char or inserts one.
    fn mutate(&mut self, s: &mut String) {
        let cuts: Vec<usize> = s.char_indices().map(|(i, _)| i).collect();
        let at = cuts[self.rng.gen_range(0..cuts.len())];
        match self.rng.gen_range(0..3) {
            0 => s.truncate(at),
            1 => {
                s.remove(at);
            }
            _ => s.insert(at, NOISE[self.rng.gen_range(0..NOISE.len())]),
        }
    }

    /// A request around `config`: a header, the configuration's lines
    /// with blank and comment lines sometimes between them, then
    /// requirements, all under one line ending.
    fn request(&mut self, config: &str) -> String {
        let eol = if self.rng.gen_bool(0.25) {
            "\r\n"
        } else {
            "\n"
        };
        let mut s = String::new();
        match self.rng.gen_range(0..10) {
            0 => s += &format!("stock s: geo-dns{eol}"),
            1 => {}
            2 => s += &format!("module reacher:{eol}"),
            _ => s += &format!("module m:{eol}"),
        }
        let stock = s.starts_with("stock");
        if !stock || self.rng.gen_bool(0.2) {
            for line in config.lines() {
                s += line;
                s += eol;
                if self.rng.gen_bool(0.1) {
                    s += self.pick(&["", "   ", "// aside", "  // aside"]);
                    s += eol;
                }
            }
        }
        for _ in 0..self.rng.gen_range(0..3) {
            s += self.pick(&[
                "reach from internet udp -> client",
                "reach from internet udp",
                "  reach  from client -> internet",
                "reach nowhere",
            ]);
            s += eol;
            if self.rng.gen_bool(0.3) {
                s += "  -> client dst port 1500";
                s += eol;
                s += "  const proto";
                s += eol;
            }
        }
        s
    }
}

/// Inputs from `garbage_requests` and a few more built to break a lexer.
fn hostile_texts() -> Vec<String> {
    let mut texts: Vec<String> = [
        "",
        "module m:\nNotAClass(",
        "module m:\nFromNetfront() -> Frobnicator(3) -> ToNetfront();",
        "stock x: frobnicator",
        "stock s: geo-dns",
        "stock x: x86-vm\nFromNetfront() -> Discard();",
        "module m:\n(",
        ")))",
        "/*",
        "/*/",
        "a/*",
        "a//",
        "//",
        "a :: ",
        "::",
        "->",
        "[",
        "[99999999999999999999999]a",
        "a[1 -> b",
        "$SELF",
        "\u{0}",
        "\u{ffff}",
        "é :: Counter; é -> é;",
        "a/b :: Counter; a/b -> Discard;",
        "a :: Tee(2); b :: Discard; c :: Discard; a[0] -> b; a[0] -> c;",
        "Counter@1 :: Discard; Counter(); Counter@1 -> Discard;",
        "Counter(); Counter@1 :: Discard;",
        "x :: IPFilter(a /* ) */ b, c // ,)\n d);",
        "x :: IPFilter(\"(\", b);",
        "reach from internet udp -> client",
        "module m:\nreacher :: Counter();\nFromNetfront() -> reacher -> ToNetfront();",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    for arg in hostile::HOSTILE_ARGS
        .iter()
        .chain(hostile::HOSTILE_IP_RULES)
    {
        texts.push(format!(
            "FromNetfront() -> IPFilter({arg}) -> ToNetfront();"
        ));
        texts.push(format!(
            "c :: Classifier({arg}, -); FromNetfront() -> c -> Discard;"
        ));
        texts.push(format!(
            "module m:\nFromNetfront() -> IPClassifier({arg}) -> ToNetfront();"
        ));
    }
    texts
}

#[test]
fn generated_configurations_read_alike() {
    println!("seed {SEED}");
    let mut gen = Gen {
        rng: StdRng::seed_from_u64(SEED),
    };
    let (mut configs, mut requests) = (Tally::default(), Tally::default());
    for _ in 0..CASES {
        let config = gen.config();
        agree_config(&config, &mut configs);
        let request = gen.request(&config);
        agree_request(&request, &mut requests);
    }
    println!("configurations {configs:?}, requests {requests:?}");
    // Floors: the generator must exercise both outcomes on both levels.
    for tally in [&configs, &requests] {
        assert!(tally.accepted >= CASES / 4, "{tally:?}");
        assert!(tally.refused >= CASES / 4, "{tally:?}");
    }
}

#[test]
fn hostile_inputs_read_alike() {
    let mut tally = Tally::default();
    for text in hostile_texts() {
        agree_config(&text, &mut tally);
        agree_request(&text, &mut tally);
    }
    println!("hostile {tally:?}");
    assert!(tally.accepted > 0 && tally.refused > 0, "{tally:?}");
}

#[test]
fn every_prefix_of_a_valid_request_reads_alike() {
    println!("seed {SEED}");
    let mut gen = Gen {
        rng: StdRng::seed_from_u64(SEED ^ 1),
    };
    let mut valid = vec![
        "module batcher:\nFromNetfront()\n  -> IPFilter(allow udp dst port 1500) // udp only\n  \
         -> IPRewriter(pattern - - $SELF - 0 0)\n  -> TimedUnqueue(120, 100)\n  \
         -> dst :: ToNetfront();\n\nreach from internet udp\n  -> batcher:dst:0 dst 172.16.15.133\n  \
         -> client dst port 1500\n  const proto && dst port && payload\n"
            .to_string(),
    ];
    while valid.len() < 40 {
        let config = gen.config();
        let request = gen.request(&config);
        if parse_oracle::parse_request(&request).is_ok() {
            valid.push(request);
        }
    }
    let mut tally = Tally::default();
    for request in &valid {
        for (cut, _) in request.char_indices() {
            agree_request(&request[..cut], &mut tally);
        }
        agree_request(request, &mut tally);
    }
    println!("prefixes {tally:?}");
    assert!(tally.accepted >= valid.len(), "{tally:?}");
    assert!(tally.refused > 0, "{tally:?}");
}

#[test]
fn generated_graphs_validate_alike() {
    // Built, not parsed: names declared twice, connections to undeclared
    // names and output ports used twice, in every order.
    println!("seed {SEED}");
    let mut rng = StdRng::seed_from_u64(SEED ^ 2);
    let names = ["a", "b", "c", "d", "e"];
    let mut tally = Tally::default();
    for _ in 0..CASES {
        let mut cfg = ClickConfig::new();
        for _ in 0..rng.gen_range(0..5) {
            cfg.add_element(names[rng.gen_range(0..4usize)], "Counter", &[]);
        }
        for _ in 0..rng.gen_range(0..6) {
            let (from, to) = (
                names[rng.gen_range(0..5usize)],
                names[rng.gen_range(0..5usize)],
            );
            cfg.connect(from, rng.gen_range(0..2usize), to, rng.gen_range(0..2usize));
        }
        match (parse_oracle::validate(&cfg), cfg.validate()) {
            (Ok(()), Ok(())) => tally.accepted += 1,
            (old, new) => {
                assert_eq!(old, new, "{cfg:?}");
                tally.refused += 1;
            }
        }
    }
    println!("graphs {tally:?}");
    assert!(
        tally.accepted >= CASES / 10 && tally.refused >= CASES / 4,
        "{tally:?}"
    );
}
