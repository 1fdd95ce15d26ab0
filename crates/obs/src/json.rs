//! Minimal JSON writing for the snapshot exporter and the event
//! journal: escaped strings and shortest-roundtrip floats.
//!
//! Deliberately tiny — the workspace has no serde.

/// Append `s` to `out` as a quoted JSON string with escaping.
pub(crate) fn push_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append an `f32` in shortest-roundtrip form. Non-finite values (JSON
/// has no literal for them) are written as quoted strings so the
/// document stays parseable.
pub(crate) fn push_f32(out: &mut String, v: f32) {
    if v.is_finite() {
        out.push_str(&format!("{v:?}"));
    } else {
        push_str(out, &format!("{v:?}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_round_trips() {
        let mut out = String::new();
        push_str(&mut out, "a\"b\\c\nd\te\u{1}");
        assert_eq!(out, r#""a\"b\\c\nd\te\u0001""#);
    }

    #[test]
    fn non_finite_f32_written_as_string() {
        let mut out = String::new();
        push_f32(&mut out, f32::NAN);
        assert_eq!(out, "\"NaN\"");
        out.clear();
        push_f32(&mut out, 1.5);
        assert_eq!(out, "1.5");
    }
}
