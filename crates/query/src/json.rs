//! Hand-rolled JSON string escaping and the few extractors `loadgen` and
//! lockbench's client need — no serialization dependency, same as the
//! rest of the workspace.
//!
//! This is deliberately not a JSON parser: the query plane's responses
//! are flat objects built by this repo, so a client only needs
//! to pull one string field, one integer field, or one string array out
//! of a known-shape document.

/// Escape a string for embedding in a JSON document.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Unescape a JSON string body (the part between the quotes). Returns
/// `None` on malformed escapes.
pub(crate) fn unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '"' => out.push('"'),
            '\\' => out.push('\\'),
            '/' => out.push('/'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            'b' => out.push('\u{8}'),
            'f' => out.push('\u{c}'),
            'u' => {
                let hex: String = (0..4).map(|_| chars.next()).collect::<Option<_>>()?;
                let code = u32::from_str_radix(&hex, 16).ok()?;
                out.push(char::from_u32(code)?);
            }
            _ => return None,
        }
    }
    Some(out)
}

/// Find the raw (still-escaped) body of `"key":"..."` in a flat JSON
/// object, respecting escapes inside the value.
fn raw_string_field<'a>(doc: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":\"");
    let start = doc.find(&needle)? + needle.len();
    let rest = &doc[start..];
    let mut escaped = false;
    for (i, c) in rest.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' => escaped = true,
            '"' => return Some(&rest[..i]),
            _ => {}
        }
    }
    None
}

/// Extract and unescape `"key":"value"` from a flat JSON object.
pub fn string_field(doc: &str, key: &str) -> Option<String> {
    unescape(raw_string_field(doc, key)?)
}

/// Extract `"key":123` from a flat JSON object.
pub fn u64_field(doc: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let start = doc.find(&needle)? + needle.len();
    let digits: String = doc[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Extract a flat string array `"key":["a","b",...]` from a JSON object.
pub fn string_array(doc: &str, key: &str) -> Option<Vec<String>> {
    let needle = format!("\"{key}\":[");
    let start = doc.find(&needle)? + needle.len();
    let rest = &doc[start..];
    let mut out = Vec::new();
    let mut i = 0;
    let bytes = rest.as_bytes();
    loop {
        while i < bytes.len() && (bytes[i] == b',' || bytes[i] == b' ') {
            i += 1;
        }
        match bytes.get(i)? {
            b']' => return Some(out),
            b'"' => {
                i += 1;
                let body_start = i;
                let mut escaped = false;
                loop {
                    let c = *bytes.get(i)?;
                    if escaped {
                        escaped = false;
                    } else if c == b'\\' {
                        escaped = true;
                    } else if c == b'"' {
                        break;
                    }
                    i += 1;
                }
                out.push(unescape(&rest[body_start..i])?);
                i += 1;
            }
            _ => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_round_trips() {
        let nasty = "line1\nline2\t\"quoted\" back\\slash\r\u{1}";
        assert_eq!(unescape(&escape(nasty)).unwrap(), nasty);
    }

    #[test]
    fn extracts_fields_from_flat_objects() {
        let doc = r#"{"name":"fig9:ISP-CE","render":"a\nb \"c\"","flows":42,"tail":"x"}"#;
        assert_eq!(string_field(doc, "name").unwrap(), "fig9:ISP-CE");
        assert_eq!(string_field(doc, "render").unwrap(), "a\nb \"c\"");
        assert_eq!(u64_field(doc, "flows"), Some(42));
        assert_eq!(string_field(doc, "missing"), None);
    }

    #[test]
    fn extracts_string_arrays() {
        let doc = r#"{"figures":["table2","fig9:ISP-CE","a\"b"]}"#;
        assert_eq!(
            string_array(doc, "figures").unwrap(),
            vec!["table2", "fig9:ISP-CE", "a\"b"]
        );
        assert_eq!(string_array(doc, "figures").unwrap().len(), 3);
        assert_eq!(string_array("{}", "figures"), None);
    }
}
