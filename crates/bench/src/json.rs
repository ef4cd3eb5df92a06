//! A minimal JSON reader for what a snapshot holds: objects, arrays,
//! strings (with the escapes `quote` writes) and numbers.

use super::{Cell, Row};

/// A parsed JSON value; strings and numbers are snapshot cells.
#[derive(Debug)]
pub enum Value {
    Leaf(Cell),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    pub fn field(&self, name: &str) -> Option<&Value> {
        let Value::Obj(o) = self else { return None };
        o.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    pub fn leaf(&self) -> Option<&Cell> {
        let Value::Leaf(c) = self else { return None };
        Some(c)
    }

    /// An object whose values are all strings or numbers.
    pub fn row(&self) -> Option<Row> {
        let Value::Obj(o) = self else { return None };
        let cells = o.iter().map(|(k, v)| Some((k.clone(), v.leaf()?.clone())));
        cells.collect::<Option<_>>().map(Row)
    }
}

/// Parses one JSON document (trailing data is an error).
pub fn parse(mut s: &str) -> Result<Value, String> {
    let v = value(&mut s)?;
    match s.trim_start() {
        "" => Ok(v),
        rest => Err(format!("trailing data at '{rest:.20}'")),
    }
}

/// Consumes `c`, after any whitespace, if it comes next.
fn eat(s: &mut &str, c: char) -> bool {
    *s = s.trim_start();
    let rest = s.strip_prefix(c);
    *s = rest.unwrap_or(s);
    rest.is_some()
}

fn value(s: &mut &str) -> Result<Value, String> {
    if eat(s, '"') {
        return string(s).map(|t| Value::Leaf(Cell::Str(t)));
    }
    let close = if eat(s, '[') {
        ']'
    } else if eat(s, '{') {
        '}'
    } else {
        let len = s
            .find(|c| !"0123456789+-.eE".contains(c))
            .unwrap_or(s.len());
        let n = s[..len]
            .parse()
            .map_err(|_| format!("bad value at '{s:.20}'"))?;
        *s = &s[len..];
        return Ok(Value::Leaf(Cell::Num(n)));
    };
    let (mut arr, mut obj) = (Vec::new(), Vec::new());
    while !eat(s, close) {
        if !(arr.is_empty() && obj.is_empty() || eat(s, ',')) {
            return Err(format!("expected ',' or '{close}' at '{s:.20}'"));
        }
        if close == ']' {
            arr.push(value(s)?);
        } else if eat(s, '"') {
            let key = string(s)?;
            if !eat(s, ':') {
                return Err(format!("expected ':' after '{key}'"));
            }
            obj.push((key, value(s)?));
        } else {
            return Err(format!("expected a key at '{s:.20}'"));
        }
    }
    Ok(if close == ']' {
        Value::Arr(arr)
    } else {
        Value::Obj(obj)
    })
}

/// The rest of a string literal whose opening quote is consumed.
fn string(s: &mut &str) -> Result<String, String> {
    let mut out = String::new();
    let mut chars = s.chars();
    loop {
        let end = "unterminated string";
        out.push(match chars.next().ok_or(end)? {
            '"' => break,
            '\\' => match chars.next().ok_or(end)? {
                'n' => '\n',
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let code = u32::from_str_radix(&hex, 16).ok();
                    code.and_then(char::from_u32).ok_or("bad \\u escape")?
                }
                e @ ('"' | '\\' | '/') => e,
                e => return Err(format!("unknown escape '\\{e}'")),
            },
            c => c,
        });
    }
    *s = chars.as_str();
    Ok(out)
}
