//! Just enough JSON for the flat, fixed-shape lines `disc serve` and the
//! build child print: field lookup by key, no general parser.

/// The raw value text of the first `"key":` field in `line`, up to the
/// next `,`, `}` or `]` (strings keep their quotes stripped).
pub fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    if let Some(body) = rest.strip_prefix('"') {
        let end = body.find('"')?;
        return Some(&body[..end]);
    }
    let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// A numeric field as `f64`.
pub fn num(line: &str, key: &str) -> Option<f64> {
    field(line, key)?.parse().ok()
}

/// A numeric field as `u64`.
pub fn int(line: &str, key: &str) -> Option<u64> {
    field(line, key)?.parse().ok()
}

/// Every `"hash":"0x…"` value in `line`, in order, parsed.
pub fn hashes(line: &str) -> Vec<u64> {
    line.match_indices("\"hash\":\"0x")
        .filter_map(|(at, pat)| {
            let digits = &line[at + pat.len()..];
            let end = digits.find('"')?;
            u64::from_str_radix(&digits[..end], 16).ok()
        })
        .collect()
}

/// `s` as a JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite `f64` as a JSON number (non-finite values become `0`, which
/// JSON cannot otherwise carry).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_serve_reply_shapes() {
        let zoom = r#"{"id":7,"op":"zoom","status":"ok","radius":0.05,"size":3,"hash":"0x00000000000000ff","cached":true,"degraded":false}"#;
        assert_eq!(int(zoom, "id"), Some(7));
        assert_eq!(field(zoom, "status"), Some("ok"));
        assert_eq!(field(zoom, "cached"), Some("true"));
        assert_eq!(num(zoom, "radius"), Some(0.05));
        assert_eq!(hashes(zoom), vec![255]);
        let sweep = r#"{"id":8,"op":"sweep","status":"ok","steps":[{"radius":0.2,"size":1,"hash":"0x0000000000000001"},{"radius":0.1,"size":2,"hash":"0x0000000000000002"}]}"#;
        assert_eq!(hashes(sweep), vec![1, 2]);
        assert_eq!(field(sweep, "missing"), None);
        assert_eq!(quote("a\"b"), "\"a\\\"b\"");
    }
}
