//! A string/comment-aware scanner for Rust source.
//!
//! `scale-lint` deliberately avoids a full parser: the lints it
//! enforces are token-shaped (`.unwrap()`, `format!`, `.await`), so a
//! scanner that correctly masks out comments, strings and char
//! literals — the places where those tokens are *mentioned* rather
//! than *used* — is sufficient, fast, and has no dependencies. The
//! masked text preserves byte offsets and line structure, so every
//! downstream rule works on plain line/column arithmetic.

/// A string literal found in the source, in token order.
#[derive(Debug, Clone)]
pub struct StringLit {
    /// 1-based line of the opening quote.
    pub line: usize,
    /// Byte offset of the opening quote (prefix for raw strings).
    pub offset: usize,
    /// The literal's decoded-enough text (escapes left as written —
    /// metric names never contain escapes).
    pub text: String,
}

/// A comment found in the source (line, block, or doc).
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: usize,
    /// Comment text without the `//`/`/*` markers, trimmed.
    pub text: String,
    /// True when the comment occupies the line alone (no code before it).
    pub own_line: bool,
    /// True for `//!` inner doc comments (file pragmas live here).
    pub inner_doc: bool,
}

/// Scanner output for one file.
#[derive(Debug)]
pub struct Scanned {
    /// Source with comments, string/char literals replaced by spaces.
    /// Identical length and line structure to the input.
    pub masked: String,
    /// String literals in token order.
    pub strings: Vec<StringLit>,
    /// Comments in order of appearance.
    pub comments: Vec<Comment>,
}

#[derive(PartialEq)]
enum State {
    Code,
    LineComment { start: usize, had_code: bool, inner_doc: bool },
    BlockComment { start: usize, depth: usize, had_code: bool },
    Str { start: usize, offset: usize },
    RawStr { start: usize, offset: usize, hashes: usize },
    Char,
}

/// Scan `src`, masking non-code regions.
pub fn scan(src: &str) -> Scanned {
    let bytes = src.as_bytes();
    let mut masked = Vec::with_capacity(bytes.len());
    let mut strings = Vec::new();
    let mut comments = Vec::new();
    let mut line = 1usize;
    let mut line_had_code = false;
    let mut state = State::Code;
    let mut lit = String::new();
    let mut comment_text = String::new();
    let mut i = 0usize;

    // Push a masked byte, preserving newlines for line arithmetic.
    macro_rules! mask {
        ($b:expr) => {
            masked.push(if $b == b'\n' { b'\n' } else { b' ' })
        };
    }

    while i < bytes.len() {
        let b = bytes[i];
        match state {
            State::Code => {
                if b == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                    let inner_doc = bytes.get(i + 2) == Some(&b'!');
                    state = State::LineComment { start: line, had_code: line_had_code, inner_doc };
                    comment_text.clear();
                    mask!(b);
                } else if b == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
                    state = State::BlockComment { start: line, depth: 1, had_code: line_had_code };
                    comment_text.clear();
                    mask!(b);
                    masked.push(b' '); // the '*'
                    i += 1;
                } else if b == b'"' {
                    state = State::Str { start: line, offset: i };
                    lit.clear();
                    mask!(b);
                } else if b == b'r' || b == b'b' {
                    // Possible raw-string prefix r/br followed by #*"
                    let mut j = i + 1;
                    if b == b'b' && bytes.get(j) == Some(&b'r') {
                        j += 1;
                    }
                    let mut hashes = 0;
                    while bytes.get(j) == Some(&b'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if bytes.get(j) == Some(&b'"') && (b == b'r' || j > i + 1) {
                        masked.resize(masked.len() + (j + 1 - i), b' ');
                        lit.clear();
                        state = State::RawStr { start: line, offset: i, hashes };
                        i = j;
                    } else {
                        masked.push(b);
                        line_had_code = true;
                    }
                } else if b == b'\'' {
                    // Char literal vs lifetime: a lifetime is 'ident not
                    // followed by a closing quote; chars are short.
                    let is_char = match bytes.get(i + 1) {
                        Some(b'\\') => true,
                        Some(&c) => bytes.get(i + 2) == Some(&b'\'') || !(c.is_ascii_alphanumeric() || c == b'_'),
                        None => false,
                    };
                    if is_char {
                        state = State::Char;
                        mask!(b);
                    } else {
                        masked.push(b); // lifetime tick stays (harmless)
                        line_had_code = true;
                    }
                } else {
                    masked.push(b);
                    if !b.is_ascii_whitespace() {
                        line_had_code = true;
                    }
                }
            }
            State::LineComment { start, had_code, inner_doc } => {
                if b == b'\n' {
                    comments.push(Comment {
                        line: start,
                        text: comment_text.trim_start_matches(['/', '!']).trim().to_string(),
                        own_line: !had_code,
                        inner_doc,
                    });
                    state = State::Code;
                    masked.push(b'\n');
                } else {
                    comment_text.push(b as char);
                    mask!(b);
                }
            }
            State::BlockComment { start, depth, had_code } => {
                if b == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    if depth == 1 {
                        comments.push(Comment {
                            line: start,
                            text: comment_text.trim_matches(['*', '!', ' ']).to_string(),
                            own_line: !had_code,
                            inner_doc: false,
                        });
                        state = State::Code;
                    } else {
                        state = State::BlockComment { start, depth: depth - 1, had_code };
                    }
                    mask!(b);
                    masked.push(b' ');
                    i += 1;
                } else if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    state = State::BlockComment { start, depth: depth + 1, had_code };
                    mask!(b);
                    masked.push(b' ');
                    i += 1;
                } else {
                    comment_text.push(b as char);
                    mask!(b);
                }
            }
            State::Str { start, offset } => {
                if b == b'\\' && i + 1 < bytes.len() {
                    lit.push(bytes[i + 1] as char);
                    mask!(b);
                    mask!(bytes[i + 1]);
                    i += 1;
                } else if b == b'"' {
                    strings.push(StringLit { line: start, offset, text: std::mem::take(&mut lit) });
                    state = State::Code;
                    mask!(b);
                } else {
                    lit.push(b as char);
                    mask!(b);
                }
            }
            State::RawStr { start, offset, hashes } => {
                if b == b'"' {
                    let mut j = i + 1;
                    let mut seen = 0;
                    while seen < hashes && bytes.get(j) == Some(&b'#') {
                        seen += 1;
                        j += 1;
                    }
                    if seen == hashes {
                        strings.push(StringLit { line: start, offset, text: std::mem::take(&mut lit) });
                        masked.resize(masked.len() + (j - i), b' ');
                        i = j - 1;
                        state = State::Code;
                    } else {
                        lit.push(b as char);
                        mask!(b);
                    }
                } else {
                    lit.push(b as char);
                    mask!(b);
                }
            }
            State::Char => {
                if b == b'\\' && i + 1 < bytes.len() {
                    mask!(b);
                    mask!(bytes[i + 1]);
                    i += 1;
                } else if b == b'\'' {
                    state = State::Code;
                    mask!(b);
                } else {
                    mask!(b);
                }
            }
        }
        if b == b'\n' {
            line += 1;
            line_had_code = false;
        }
        i += 1;
    }
    // Flush a trailing line comment at EOF.
    if let State::LineComment { start, had_code, inner_doc } = state {
        comments.push(Comment {
            line: start,
            text: comment_text.trim_start_matches(['/', '!']).trim().to_string(),
            own_line: !had_code,
            inner_doc,
        });
    }

    Scanned {
        masked: String::from_utf8_lossy(&masked).into_owned(),
        strings,
        comments,
    }
}

/// Per-line scope facts computed from the masked text: brace depth and
/// which lines sit inside `#[cfg(test)]` items or items under a
/// `// lint: allow(rule)` marker.
#[derive(Debug)]
pub struct Scopes {
    /// For every 1-based line: true when inside a `#[cfg(test)]` item.
    pub in_test: Vec<bool>,
    /// For every 1-based line: rules suppressed by a preceding
    /// `// lint: allow(rule)` item marker covering this line.
    pub allowed: Vec<Vec<String>>,
}

impl Scopes {
    /// Is `rule` suppressed on `line` (1-based)?
    pub fn allows(&self, line: usize, rule: &str) -> bool {
        self.allowed
            .get(line)
            .map(|rs| rs.iter().any(|r| r == rule || r == "all"))
            .unwrap_or(false)
    }
}

/// Rules named in a marker comment `lint: allow(a, b)`, if it is one.
pub fn parse_allow(text: &str) -> Option<Vec<String>> {
    let rest = text.strip_prefix("lint: allow(")?;
    let inner = rest.split(')').next()?;
    Some(inner.split(',').map(|s| s.trim().to_string()).collect())
}

/// Compute [`Scopes`] for a scanned file.
///
/// The scope model is item-granular: a marker (`#[cfg(test)]` in code,
/// or an own-line `// lint: allow(..)` comment) applies to the next
/// brace-delimited item that opens at the same depth — exactly how the
/// attribute itself binds. Markers followed by a `;` before any `{`
/// (e.g. `#[cfg(test)] use ...;`) bind to nothing.
pub fn scopes(scanned: &Scanned) -> Scopes {
    let n_lines = scanned.masked.lines().count() + 2;
    let mut in_test = vec![false; n_lines];
    let mut allowed: Vec<Vec<String>> = vec![Vec::new(); n_lines];

    // Own-line allow markers, keyed by the line they precede.
    let mut allow_markers: Vec<(usize, Vec<String>)> = Vec::new();
    for c in &scanned.comments {
        if c.own_line && !c.inner_doc {
            if let Some(rules) = parse_allow(&c.text) {
                allow_markers.push((c.line, rules));
            }
        }
    }

    #[derive(Debug)]
    struct Region {
        start_depth: usize,
        kind: RegionKind,
    }
    #[derive(Debug)]
    enum RegionKind {
        Test,
        Allow(Vec<String>),
    }

    let mut depth = 0usize;
    let mut open: Vec<Region> = Vec::new();
    // Markers waiting for their item's opening brace.
    let mut pending: Vec<RegionKind> = Vec::new();

    for (idx, raw_line) in scanned.masked.lines().enumerate() {
        let line_no = idx + 1;
        // Activate any own-line allow marker from the preceding lines:
        // it stays pending until the next item opens.
        for (m_line, rules) in &allow_markers {
            if *m_line == line_no {
                pending.push(RegionKind::Allow(rules.clone()));
            }
        }
        if raw_line.contains("#[cfg(test)]") {
            pending.push(RegionKind::Test);
        }

        // Record scope state for this line (a line inside any open
        // region inherits it; the opening line itself does too, handled
        // by marking before processing braces of the line).
        for r in &open {
            match &r.kind {
                RegionKind::Test => in_test[line_no] = true,
                RegionKind::Allow(rules) => allowed[line_no].extend(rules.iter().cloned()),
            }
        }
        // A pending allow also covers its own marker/attr line span
        // until bound, so single-line items (`let x = v.clone(); //`)
        // are handled by trailing same-line allows in the rules instead.

        for ch in raw_line.chars() {
            match ch {
                '{' => {
                    if !pending.is_empty() {
                        for kind in pending.drain(..) {
                            // Mark the opening line as covered too.
                            match &kind {
                                RegionKind::Test => in_test[line_no] = true,
                                RegionKind::Allow(rules) => {
                                    allowed[line_no].extend(rules.iter().cloned())
                                }
                            }
                            open.push(Region { start_depth: depth, kind });
                        }
                    }
                    depth += 1;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    while open.last().map(|r| r.start_depth == depth).unwrap_or(false) {
                        open.pop();
                    }
                }
                // An item ended without a block: markers bind to nothing.
                ';' if depth == 0 || open.last().map(|r| r.start_depth < depth).unwrap_or(true) => {
                    pending.clear();
                }
                _ => {}
            }
        }
    }

    Scopes { in_test, allowed }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_comments_and_strings() {
        let src = r#"
// has .unwrap() in a comment
let x = "call .unwrap() inside"; // trailing .unwrap()
let y = v.unwrap();
/* block .unwrap() */
"#;
        let s = scan(src);
        let hits: Vec<usize> = s
            .masked
            .lines()
            .enumerate()
            .filter(|(_, l)| l.contains(".unwrap()"))
            .map(|(i, _)| i + 1)
            .collect();
        assert_eq!(hits, vec![4], "only the real call survives masking");
        assert_eq!(s.strings.len(), 1);
        assert_eq!(s.strings[0].text, "call .unwrap() inside");
    }

    #[test]
    fn raw_strings_and_chars() {
        let src = "let a = r#\"raw .unwrap() \"# ; let c = '\"'; let d = b.unwrap();";
        let s = scan(src);
        assert!(s.masked.contains(".unwrap()"));
        assert_eq!(s.masked.matches(".unwrap()").count(), 1);
        assert_eq!(s.strings[0].text, "raw .unwrap() ");
    }

    #[test]
    fn lifetimes_are_not_chars() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }";
        let s = scan(src);
        assert!(s.masked.contains("str { x }"), "masked: {}", s.masked);
    }

    #[test]
    fn cfg_test_scope_covers_module() {
        let src = "
fn lib() { v.unwrap(); }
#[cfg(test)]
mod tests {
    fn t() { v.unwrap(); }
}
fn lib2() {}
";
        let s = scan(src);
        let sc = scopes(&s);
        assert!(!sc.in_test[2]);
        assert!(sc.in_test[4] && sc.in_test[5]);
        assert!(!sc.in_test[7]);
    }

    #[test]
    fn allow_marker_covers_next_item_only() {
        let src = "
// lint: allow(alloc): cold construction path
fn cold() { let v = Vec::new(); }
fn hot() { let v = Vec::new(); }
";
        let s = scan(src);
        let sc = scopes(&s);
        assert!(sc.allows(3, "alloc"));
        assert!(!sc.allows(4, "alloc"));
    }

    #[test]
    fn parse_allow_lists() {
        assert_eq!(parse_allow("lint: allow(alloc)"), Some(vec!["alloc".into()]));
        assert_eq!(
            parse_allow("lint: allow(alloc, unwrap): reason"),
            Some(vec!["alloc".into(), "unwrap".into()])
        );
        assert_eq!(parse_allow("plain comment"), None);
    }
}
