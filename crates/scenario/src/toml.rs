//! A hand-rolled parser for the TOML subset scenario files use.
//!
//! The dependency set is deliberately small (the CLI parses its own flags
//! for the same reason), so scenario files are read by this module instead
//! of a full TOML crate. The subset is exactly what the scenario schema
//! needs — tables, arrays of tables, bare keys, and string / float /
//! integer / boolean / date / string-array values — and every parse error
//! carries the 1-based line it occurred on, which the measure validator
//! reuses to name the offending line of a semantic error.
//!
//! Deliberate omissions (each rejected with a line-numbered error rather
//! than silently misread): dotted keys, inline tables, multi-line strings,
//! datetimes with a time component, and non-string arrays.

use lockdown_flow::time::Date;

/// A parsed scalar (or string-array) value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A quoted string.
    Str(String),
    /// A float. Integers written with a decimal point land here.
    Float(f64),
    /// An integer without a decimal point or exponent.
    Int(i64),
    /// `true` / `false`.
    Bool(bool),
    /// A bare `YYYY-MM-DD` date.
    Date(Date),
    /// An array of quoted strings.
    StrArray(Vec<String>),
}

impl Value {
    /// Human name of the value's type, for "expected X, got Y" errors.
    pub(crate) fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Float(_) => "float",
            Value::Int(_) => "integer",
            Value::Bool(_) => "boolean",
            Value::Date(_) => "date",
            Value::StrArray(_) => "string array",
        }
    }
}

/// One `key = value` entry, with the line it was written on.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// The bare key.
    pub key: String,
    /// The parsed value.
    pub value: Value,
    /// 1-based source line of the entry.
    pub line: usize,
}

/// One table instance: a `[header]` or `[[header]]` and the entries that
/// follow it (up to the next header). Keys before any header belong to an
/// implicit root table with an empty path.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Dotted header path, split on `.` (empty for the root table).
    pub path: Vec<String>,
    /// Whether the header was the `[[...]]` array-of-tables form.
    pub is_array: bool,
    /// 1-based source line of the header (0 for the root table).
    pub line: usize,
    /// Entries in source order.
    pub entries: Vec<Entry>,
}

impl Table {
    /// Look up an entry by key.
    pub(crate) fn get(&self, key: &str) -> Option<&Entry> {
        self.entries.iter().find(|e| e.key == key)
    }
}

/// A parsed document: tables in source order (root table first when any
/// top-level keys exist).
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Document {
    /// Tables in source order.
    pub tables: Vec<Table>,
}

/// A parse error, carrying the 1-based line it occurred on.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ParseError {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        message: message.into(),
    })
}

fn is_bare_key_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '-' || c == '_'
}

/// Strip a trailing comment (a `#` outside of any quoted string) and
/// surrounding whitespace.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if in_str {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
        } else if c == '"' {
            in_str = true;
        } else if c == '#' {
            return line[..i].trim();
        }
    }
    line.trim()
}

fn parse_quoted(s: &str, line: usize) -> Result<(String, &str), ParseError> {
    debug_assert!(s.starts_with('"'));
    let mut out = String::new();
    let mut chars = s[1..].char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((out, &s[1 + i + 1..])),
            '\\' => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 't')) => out.push('\t'),
                Some((_, other)) => {
                    return err(line, format!("unsupported string escape: \\{other}"))
                }
                None => return err(line, "unterminated string escape"),
            },
            _ => out.push(c),
        }
    }
    err(line, "unterminated string")
}

/// Whether `s` has the zero-padded `DDDD-DD-DD` shape of a bare date
/// (the calendar is checked by [`Date::parse_iso`]).
fn looks_like_date(s: &str) -> bool {
    let b = s.as_bytes();
    b.len() == 10
        && b[4] == b'-'
        && b[7] == b'-'
        && b.iter()
            .enumerate()
            .all(|(i, c)| matches!(i, 4 | 7) || c.is_ascii_digit())
}

fn parse_scalar(s: &str, line: usize) -> Result<Value, ParseError> {
    if s == "true" {
        return Ok(Value::Bool(true));
    }
    if s == "false" {
        return Ok(Value::Bool(false));
    }
    if looks_like_date(s) {
        return Date::parse_iso(s)
            .map(Value::Date)
            .map_err(|message| ParseError { line, message });
    }
    if s.contains('.') || s.contains('e') || s.contains('E') {
        if let Ok(f) = s.parse::<f64>() {
            if f.is_finite() {
                return Ok(Value::Float(f));
            }
            return err(line, format!("non-finite float: {s}"));
        }
    } else if let Ok(i) = s.parse::<i64>() {
        return Ok(Value::Int(i));
    }
    err(line, format!("unrecognized value: {s}"))
}

fn parse_value(s: &str, line: usize) -> Result<Value, ParseError> {
    if let Some(rest) = s.strip_prefix('[') {
        // Single-line array of quoted strings.
        let mut items = Vec::new();
        let mut rest = rest.trim_start();
        loop {
            if let Some(after) = rest.strip_prefix(']') {
                if !after.trim().is_empty() {
                    return err(line, format!("trailing characters after array: {after}"));
                }
                return Ok(Value::StrArray(items));
            }
            if !rest.starts_with('"') {
                return err(line, "arrays may contain only quoted strings");
            }
            let (item, after) = parse_quoted(rest, line)?;
            items.push(item);
            rest = after.trim_start();
            if let Some(after_comma) = rest.strip_prefix(',') {
                rest = after_comma.trim_start();
            } else if !rest.starts_with(']') {
                return err(line, "expected ',' or ']' in array");
            }
        }
    }
    if s.starts_with('"') {
        let (v, after) = parse_quoted(s, line)?;
        if !after.trim().is_empty() {
            return err(line, format!("trailing characters after string: {after}"));
        }
        return Ok(Value::Str(v));
    }
    parse_scalar(s, line)
}

fn parse_header(body: &str, line: usize) -> Result<Vec<String>, ParseError> {
    let mut path = Vec::new();
    for part in body.split('.') {
        let part = part.trim();
        if part.is_empty() || !part.chars().all(is_bare_key_char) {
            return err(line, format!("bad table header: [{body}]"));
        }
        path.push(part.to_string());
    }
    Ok(path)
}

/// Parse a document from source text.
pub(crate) fn parse(text: &str) -> Result<Document, ParseError> {
    let mut doc = Document::default();
    let mut current: Option<Table> = None;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_comment(raw);
        if line.is_empty() {
            continue;
        }
        if let Some(body) = line
            .strip_prefix("[[")
            .and_then(|rest| rest.strip_suffix("]]"))
        {
            if let Some(t) = current.take() {
                doc.tables.push(t);
            }
            current = Some(Table {
                path: parse_header(body, line_no)?,
                is_array: true,
                line: line_no,
                entries: Vec::new(),
            });
            continue;
        }
        if let Some(body) = line
            .strip_prefix('[')
            .and_then(|rest| rest.strip_suffix(']'))
        {
            if let Some(t) = current.take() {
                doc.tables.push(t);
            }
            current = Some(Table {
                path: parse_header(body, line_no)?,
                is_array: false,
                line: line_no,
                entries: Vec::new(),
            });
            continue;
        }
        let Some(eq) = line.find('=') else {
            return err(line_no, format!("expected `key = value`, got: {line}"));
        };
        let key = line[..eq].trim();
        if key.is_empty() || !key.chars().all(is_bare_key_char) {
            return err(
                line_no,
                format!("bad key (bare keys use [A-Za-z0-9_-]): {key}"),
            );
        }
        let value = parse_value(line[eq + 1..].trim(), line_no)?;
        let entry = Entry {
            key: key.to_string(),
            value,
            line: line_no,
        };
        match &mut current {
            Some(t) => {
                if t.entries.iter().any(|e| e.key == entry.key) {
                    return err(line_no, format!("duplicate key: {}", entry.key));
                }
                t.entries.push(entry);
            }
            None => {
                let root = Table {
                    path: Vec::new(),
                    is_array: false,
                    line: 0,
                    entries: vec![entry],
                };
                current = Some(root);
            }
        }
    }
    if let Some(t) = current.take() {
        doc.tables.push(t);
    }
    Ok(doc)
}

/// Render a string with the escapes [`parse`] understands.
pub(crate) fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            _ => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render a float so it parses back bit-identically and is always read as
/// a float (a trailing `.0` is appended to integral values without one).
pub(crate) fn render_float(f: f64) -> String {
    let s = format!("{f:?}");
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_tables_arrays_and_scalars() {
        let doc = parse(
            r#"
# top comment
[scenario]
name = "x" # trailing comment
level = 0.10
count = 4
flag = true
when = 2020-03-16

[[event]]
classes = ["web", "quic"]

[[event]]
classes = []
"#,
        )
        .expect("parses");
        assert_eq!(doc.tables.len(), 3);
        let s = &doc.tables[0];
        assert_eq!(s.path, ["scenario"]);
        assert_eq!(s.get("name").unwrap().value, Value::Str("x".into()));
        assert_eq!(s.get("level").unwrap().value, Value::Float(0.10));
        assert_eq!(s.get("count").unwrap().value, Value::Int(4));
        assert_eq!(s.get("flag").unwrap().value, Value::Bool(true));
        assert_eq!(
            s.get("when").unwrap().value,
            Value::Date(Date::new(2020, 3, 16))
        );
        assert!(doc.tables[1].is_array);
        assert_eq!(
            doc.tables[1].get("classes").unwrap().value,
            Value::StrArray(vec!["web".into(), "quic".into()])
        );
        assert_eq!(
            doc.tables[2].get("classes").unwrap().value,
            Value::StrArray(Vec::new())
        );
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse("[scenario]\nname = \"unterminated").unwrap_err();
        assert_eq!(e.line, 2);
        let e = parse("\n\nnot a key value").unwrap_err();
        assert_eq!(e.line, 3);
        let e = parse("[t]\nwhen = 2020-13-01").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("impossible"), "{}", e.message);
        let e = parse("[t]\nx = 1\nx = 2").unwrap_err();
        assert!(e.message.contains("duplicate"), "{}", e.message);
        assert_eq!(e.line, 3);
    }

    #[test]
    fn float_rendering_roundtrips() {
        for f in [0.1, 0.3, 1.0035, 4.0, 42.0, 1e-9, 123.456e7] {
            let s = render_float(f);
            match parse(&format!("x = {s}")).unwrap().tables[0]
                .get("x")
                .unwrap()
                .value
            {
                Value::Float(back) => assert_eq!(back.to_bits(), f.to_bits(), "{s}"),
                ref v => panic!("rendered float parsed as {}", v.type_name()),
            }
        }
    }

    #[test]
    fn date_like_strings_must_be_valid() {
        assert!(parse("x = 2020-02-30").is_err());
        assert!(matches!(
            parse("x = 2020-02-29").unwrap().tables[0]
                .get("x")
                .unwrap()
                .value,
            Value::Date(_)
        ));
    }
}
