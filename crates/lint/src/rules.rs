//! The lint rules. Each rule is a pass over a [`Scanned`] file plus
//! its [`Scopes`]; all report [`Violation`]s with stable rule names
//! that the `// lint: allow(<rule>)` escape hatch refers to.
//!
//! Rule catalogue (rationale in DESIGN.md §11):
//!
//! | rule          | meaning                                                    |
//! |---------------|------------------------------------------------------------|
//! | `alloc`       | no allocation in `//! lint: hot-path` modules              |
//! | `hot-path-lock` | no `Mutex`/`RwLock` acquisition in hot-path modules      |
//! | `unwrap`      | no `unwrap()`/`expect()` in non-test library code          |
//! | `nondet`      | no ambient time/randomness (`SystemTime::now`, `thread_rng`)|
//! | `await-guard` | no blocking lock guard held across `.await` or a blocking link send (sctplite, wire) |
//! | `metric-name` | metric names follow `scale_<crate>_<noun>_<unit>`          |
//! | `exhaustive-protocol-match` | no `_`/bare-binding arm where a sibling arm matches a protocol enum (`WireMsg`/`EmmMessage`) |
//! | `vendor-drift` | vendored shims must match the checked-in checksum manifest |

use crate::scan::{parse_allow, Scanned, Scopes};
use std::path::Path;

/// One reported lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Repo-relative path of the offending file.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Stable rule name (`alloc`, `unwrap`, ...).
    pub rule: &'static str,
    /// Human-readable description of the specific hit.
    pub message: String,
}

/// What kind of source file this is; rules scope themselves by kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code under `src/` (the strictest tier).
    Lib,
    /// A binary under `src/bin/`.
    Bin,
    /// Integration tests under `tests/`.
    Test,
    /// Benchmarks under `benches/`.
    Bench,
    /// Examples under `examples/`.
    Example,
}

/// Classify a repo-relative path.
pub fn classify(path: &Path) -> FileKind {
    let p = path.to_string_lossy().replace('\\', "/");
    if p.contains("/tests/") || p.starts_with("tests/") {
        FileKind::Test
    } else if p.contains("/benches/") || p.starts_with("benches/") {
        FileKind::Bench
    } else if p.contains("/examples/") || p.starts_with("examples/") {
        FileKind::Example
    } else if p.contains("/src/bin/") || p.starts_with("src/bin/") {
        // The second arm catches the workspace root package, whose
        // binaries lint under the relative path `src/bin/...`.
        FileKind::Bin
    } else {
        FileKind::Lib
    }
}

/// True when the file opts into the hot-path allocation lint via an
/// inner doc pragma `//! lint: hot-path`.
pub fn is_hot_path(scanned: &Scanned) -> bool {
    scanned
        .comments
        .iter()
        .any(|c| c.inner_doc && c.text.trim() == "lint: hot-path")
}

/// Rules suppressed by a trailing `// lint: allow(x)` on this line.
fn line_allows(scanned: &Scanned, line: usize) -> Vec<String> {
    scanned
        .comments
        .iter()
        .filter(|c| c.line == line && !c.own_line)
        .filter_map(|c| parse_allow(&c.text))
        .flatten()
        .collect()
}

fn suppressed(scanned: &Scanned, scopes: &Scopes, line: usize, rule: &str) -> bool {
    scopes.in_test.get(line).copied().unwrap_or(false)
        || scopes.allows(line, rule)
        || line_allows(scanned, line).iter().any(|r| r == rule || r == "all")
}

/// Substring match that requires the previous character to not be part
/// of an identifier — so `seen_unwrap()` doesn't trip `unwrap()` and
/// `recompute()` doesn't trip `compute()`.
fn token_hit(code: &str, needle: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(rel) = code[from..].find(needle) {
        let at = from + rel;
        let boundary = if needle.starts_with(['.', ' ']) {
            true
        } else {
            at == 0
                || !code[..at]
                    .chars()
                    .next_back()
                    .map(|c| c.is_alphanumeric() || c == '_')
                    .unwrap_or(false)
        };
        if boundary {
            return Some(at);
        }
        from = at + needle.len();
    }
    None
}

/// `unwrap`: no `.unwrap()` / `.expect(` in non-test library code.
pub fn check_unwrap(
    path: &str,
    kind: FileKind,
    scanned: &Scanned,
    scopes: &Scopes,
    out: &mut Vec<Violation>,
) {
    if kind != FileKind::Lib {
        return;
    }
    for (idx, code) in scanned.masked.lines().enumerate() {
        let line = idx + 1;
        for needle in [".unwrap()", ".expect("] {
            if token_hit(code, needle).is_some() && !suppressed(scanned, scopes, line, "unwrap") {
                out.push(Violation {
                    path: path.to_string(),
                    line,
                    rule: "unwrap",
                    message: format!("`{needle}` in library code — return a typed error or restructure to be statically infallible"),
                });
            }
        }
    }
}

/// Allocation-shaped tokens banned in hot-path modules.
const ALLOC_TOKENS: &[&str] = &[
    ".clone()",
    ".to_vec(",
    ".to_string(",
    ".to_owned(",
    ".collect(",
    "format!",
    "vec!",
    "String::from",
    "String::new",
    "String::with_capacity",
    "Vec::new",
    "Vec::with_capacity",
    "Box::new",
    "BTreeMap::new",
    "HashMap::new",
    "with_capacity",
];

/// `alloc`: no allocation calls in modules annotated `//! lint: hot-path`.
pub fn check_alloc(path: &str, scanned: &Scanned, scopes: &Scopes, out: &mut Vec<Violation>) {
    if !is_hot_path(scanned) {
        return;
    }
    for (idx, code) in scanned.masked.lines().enumerate() {
        let line = idx + 1;
        for needle in ALLOC_TOKENS {
            if token_hit(code, needle).is_some() && !suppressed(scanned, scopes, line, "alloc") {
                out.push(Violation {
                    path: path.to_string(),
                    line,
                    rule: "alloc",
                    message: format!("`{needle}` allocates in a hot-path module — use stack scratch / reusable buffers, or mark the cold item `// lint: allow(alloc)`"),
                });
                break; // one report per line is enough
            }
        }
    }
}

/// Lock-acquisition-shaped tokens banned in hot-path modules: routing
/// reads must stay lock-free (epoch-published snapshots + relaxed
/// atomics); a mutex on the read path serializes every worker behind
/// one cache line and caps scale-out flat.
const LOCK_TOKENS: &[&str] = &[
    ".lock()",
    ".read()",
    ".write()",
    "Mutex::new",
    "RwLock::new",
];

/// `hot-path-lock`: no `Mutex`/`RwLock` construction or acquisition in
/// modules annotated `//! lint: hot-path`. Writer-side serialization
/// belongs in a non-hot-path module (or the vendored arc-swap, whose
/// writer mutex is never on the read path).
pub fn check_hot_path_lock(path: &str, scanned: &Scanned, scopes: &Scopes, out: &mut Vec<Violation>) {
    if !is_hot_path(scanned) {
        return;
    }
    for (idx, code) in scanned.masked.lines().enumerate() {
        let line = idx + 1;
        for needle in LOCK_TOKENS {
            if token_hit(code, needle).is_some()
                && !suppressed(scanned, scopes, line, "hot-path-lock")
            {
                out.push(Violation {
                    path: path.to_string(),
                    line,
                    rule: "hot-path-lock",
                    message: format!(
                        "`{needle}` acquires/builds a blocking lock in a hot-path module — read through an epoch-published snapshot or atomics, or move the writer path out of the module"
                    ),
                });
                break; // one report per line is enough
            }
        }
    }
}

/// Nondeterminism sources banned outside `vendor/`.
const NONDET_TOKENS: &[&str] = &[
    "SystemTime::now",
    "thread_rng",
    "from_entropy",
    "rand::random",
];

/// `nondet`: experiments must be seed-deterministic; ambient entropy
/// and wall-clock-as-data are banned everywhere (`Instant::now` is
/// allowed — measuring elapsed time is not data nondeterminism).
pub fn check_nondet(path: &str, scanned: &Scanned, scopes: &Scopes, out: &mut Vec<Violation>) {
    for (idx, code) in scanned.masked.lines().enumerate() {
        let line = idx + 1;
        for needle in NONDET_TOKENS {
            if token_hit(code, needle).is_some() && !suppressed(scanned, scopes, line, "nondet") {
                out.push(Violation {
                    path: path.to_string(),
                    line,
                    rule: "nondet",
                    message: format!("`{needle}` is nondeterministic — thread a seeded RNG / explicit clock through instead"),
                });
            }
        }
    }
}

/// Calls on a split link's send half that wait at a full egress buffer
/// until the peer has read — for as long as the peer likes. Their
/// `try_` twins (`try_send_unit`, `try_ping`) answer `Full` instead
/// and do not match these needles.
const BLOCKING_SENDS: &[&str] = &[
    ".send(",
    ".send_unit(",
    ".ping(",
    ".shutdown_send(",
];

/// `await-guard`: a guard from a *blocking* `.lock()`/`.read()`/`.write()`
/// may not live across a point where the thread can be parked for a
/// peer's sake: an `.await` (async mutexes acquired via `.lock().await`
/// are exempt — they are designed to be held), or a blocking send on a
/// split link (`BLOCKING_SENDS`). The second is the MLB's rule: it
/// routes under one lock on the links' own threads, and a send that
/// waited for a stalled worker there would hold the lock that worker's
/// reader — and everybody else — is waiting for.
///
/// Scoped to the async-transport code: the sctplite crate and the wire
/// deployment modules (`core::wire`, `sim::wire_run`, `wire_load`),
/// which mix shared-state locks with socket I/O on the same threads.
pub fn check_await_guard(path: &str, scanned: &Scanned, scopes: &Scopes, out: &mut Vec<Violation>) {
    if !(path.contains("sctplite") || path.contains("wire")) {
        return;
    }
    #[derive(Debug)]
    struct Guard {
        name: String,
        depth: usize,
        line: usize,
    }
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0usize;
    for (idx, code) in scanned.masked.lines().enumerate() {
        let line = idx + 1;
        let acquires = [".lock()", ".read()", ".write()"]
            .iter()
            .any(|t| token_hit(code, t).is_some());
        // `.lock().await` = async mutex: not a blocking guard.
        let async_acquire = code.contains(".lock().await")
            || code.contains(".read().await")
            || code.contains(".write().await");
        if acquires && !async_acquire && code.trim_start().starts_with("let ") {
            let name = code
                .trim_start()
                .trim_start_matches("let ")
                .trim_start_matches("mut ")
                .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .next()
                .unwrap_or("")
                .to_string();
            guards.push(Guard { name, depth, line });
        }
        let parks = if !async_acquire && code.contains(".await") {
            Some("`.await`")
        } else if BLOCKING_SENDS.iter().any(|t| token_hit(code, t).is_some()) {
            Some("blocking link send (use the `try_` form and shed on `Full`)")
        } else {
            None
        };
        if let Some(what) = parks {
            for g in &guards {
                if g.depth <= depth && !suppressed(scanned, scopes, line, "await-guard") {
                    out.push(Violation {
                        path: path.to_string(),
                        line,
                        rule: "await-guard",
                        message: format!(
                            "blocking lock guard `{}` (taken on line {}) is live across this {what} — scope it or drop() it first",
                            g.name, g.line
                        ),
                    });
                }
            }
        }
        // Explicit early drop releases the guard.
        for g_idx in (0..guards.len()).rev() {
            if code.contains(&format!("drop({})", guards[g_idx].name)) {
                guards.remove(g_idx);
            }
        }
        for ch in code.chars() {
            match ch {
                '{' => depth += 1,
                '}' => {
                    depth = depth.saturating_sub(1);
                    guards.retain(|g| g.depth <= depth);
                }
                _ => {}
            }
        }
    }
}

/// Registry methods whose first string argument is a metric name,
/// paired with the unit suffix the kind mandates.
const METRIC_METHODS: &[(&str, Option<&str>)] = &[
    (".counter(", Some("_total")),
    (".histogram(", Some("_us")),
    (".series(", Some("_seconds")),
    (".phased_series(", Some("_seconds")),
    (".gauge(", None),
];

/// Known metric components — the `<component>` segment of
/// `scale_<component>_<noun>_<unit>`. A registration whose second
/// segment is not listed here fails the `metric-name` rule, so a
/// typo'd component (`scale_anlaysis_*`) breaks CI instead of silently
/// forking the metric namespace. Extend the list when a new subsystem
/// starts exporting metrics.
const KNOWN_COMPONENTS: &[&str] = &[
    "analysis",  // analytical model (scale-analysis)
    "autoscale", // closed-loop controller (scale-core::autoscale)
    "chaos",     // failover experiments
    "dc",        // datacenter cluster front end
    "link",      // sctplite transport links
    "mlb",       // load balancer / routing plane
    "mme",       // monolithic baseline MME
    "mmp",       // MMP workers
    "obs",       // observability self-metrics
    "sim",       // queueing simulator instrumentation
    "wire",      // multi-process socket deployment (MLB link metrics)
];

/// Collapse `{...}` interpolations (dynamic id segments) into one
/// alphanumeric run so format-built names lint like literals.
fn flatten_metric(name: &str) -> String {
    let mut flat = String::with_capacity(name.len());
    let mut in_brace = false;
    for c in name.chars() {
        match c {
            '{' => {
                in_brace = true;
                flat.push('x');
            }
            '}' => in_brace = false,
            _ if in_brace => {}
            _ => flat.push(c),
        }
    }
    flat
}

/// Does the flattened `name` follow `scale_<component>_<noun>[_more]`?
fn well_formed_metric(flat: &str) -> bool {
    let parts: Vec<&str> = flat.split('_').collect();
    parts.len() >= 2
        && parts[0] == "scale"
        && parts.iter().all(|p| {
            !p.is_empty() && p.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit())
        })
}

/// Collect `(line, method, mandated_suffix, name)` registration sites
/// in one file: each `.counter("..")`-shaped call with its first string
/// literal (the metric name). Calls whose name is built dynamically
/// still resolve — the literal inside `&format!("scale_x_{id}_y")` is
/// the next string token after the call and carries `{..}` wildcards.
pub fn metric_registrations(
    scanned: &Scanned,
) -> Vec<(usize, &'static str, Option<&'static str>, String)> {
    let mut sites = Vec::new();
    // Byte offsets of each line start in the masked text (masked text
    // is byte-identical in layout to the source).
    let mut line_starts = vec![0usize];
    for (i, b) in scanned.masked.bytes().enumerate() {
        if b == b'\n' {
            line_starts.push(i + 1);
        }
    }
    for (idx, code) in scanned.masked.lines().enumerate() {
        let line = idx + 1;
        let line_start = line_starts[idx];
        for &(method, suffix) in METRIC_METHODS {
            let mut from = 0;
            while let Some(rel) = code[from..].find(method) {
                let at = from + rel;
                let call_offset = line_start + at;
                // The metric name is the first string literal after the
                // call site; 300 bytes bounds the search to this call
                // even with multi-line formatting. The gap between the
                // opening paren and the literal must be only whitespace
                // plus an optional `&format!(` wrapper — otherwise the
                // hit is a no-arg accessor (`series()`) or a call whose
                // name comes from a variable, not a registration.
                let args_start = call_offset + method.len();
                if let Some(s) = scanned
                    .strings
                    .iter()
                    .find(|s| s.offset >= args_start && s.offset < call_offset + 300)
                    .filter(|s| {
                        let gap: String = scanned.masked[args_start..s.offset]
                            .chars()
                            .filter(|c| !c.is_whitespace())
                            .collect();
                        matches!(gap.as_str(), "" | "&format!(" | "format!(")
                    })
                {
                    let method_name: &'static str = match method {
                        ".counter(" => "counter",
                        ".histogram(" => "histogram",
                        ".series(" => "series",
                        ".phased_series(" => "phased_series",
                        _ => "gauge",
                    };
                    sites.push((line, method_name, suffix, s.text.clone()));
                }
                from = at + method.len();
            }
        }
    }
    sites
}

/// `metric-name`: registered metric names follow the scheme; unit
/// suffix must match the metric kind.
pub fn check_metric_names(
    path: &str,
    kind: FileKind,
    scanned: &Scanned,
    scopes: &Scopes,
    out: &mut Vec<Violation>,
) {
    if !matches!(kind, FileKind::Lib | FileKind::Bin | FileKind::Example) {
        return;
    }
    for (line, method, suffix, name) in metric_registrations(scanned) {
        if suppressed(scanned, scopes, line, "metric-name") {
            continue;
        }
        let flat = flatten_metric(&name);
        if !well_formed_metric(&flat) {
            out.push(Violation {
                path: path.to_string(),
                line,
                rule: "metric-name",
                message: format!(
                    "metric `{name}` does not follow `scale_<crate>_<noun>_<unit>` (lowercase, underscore-separated, `scale_` prefix)"
                ),
            });
            continue;
        }
        let component = flat.split('_').nth(1).unwrap_or("");
        if !KNOWN_COMPONENTS.contains(&component) {
            out.push(Violation {
                path: path.to_string(),
                line,
                rule: "metric-name",
                message: format!(
                    "metric `{name}` uses unknown component `{component}` — known components: {} (extend KNOWN_COMPONENTS in crates/lint/src/rules.rs for a new subsystem)",
                    KNOWN_COMPONENTS.join(", ")
                ),
            });
            continue;
        }
        match suffix {
            Some(unit) if !name.ends_with(unit) => out.push(Violation {
                path: path.to_string(),
                line,
                rule: "metric-name",
                message: format!("{method} metric `{name}` must end with `{unit}`"),
            }),
            None => {
                // Gauges are unit-free points; they must not borrow
                // another kind's suffix.
                for unit in ["_total", "_us", "_seconds"] {
                    if name.ends_with(unit) {
                        out.push(Violation {
                            path: path.to_string(),
                            line,
                            rule: "metric-name",
                            message: format!(
                                "gauge metric `{name}` must not end with `{unit}` (reserved for counters/histograms/series)"
                            ),
                        });
                    }
                }
            }
            _ => {}
        }
    }
}

/// Enum paths whose `match`es must stay exhaustive. These are the
/// protocol vocabularies: a wildcard arm in a dispatch over one of
/// them silently swallows whatever variant the next PR adds (the
/// `WildcardSwallow` mutation in `scale-check::protocol` demonstrates
/// the resulting stuck-session bug). Spelling the variants out turns
/// "new message type, forgot a handler" into a compile error. The
/// S1AP routing view (`RouteKey`) is one too: a routing key added for
/// a new procedure must be routed, not dropped by a catch-all.
const PROTOCOL_ENUMS: &[&str] = &["WireMsg::", "EmmMessage::", "RouteKey::"];

/// One parsed `match` arm: its pattern text and the 1-based line the
/// pattern starts on.
#[derive(Debug)]
struct Arm {
    pattern: String,
    line: usize,
}

/// Parse the arms of every `match` expression in the masked source.
/// Returns one `Vec<Arm>` per match. This is a bracket-depth scan, not
/// a full parser, but masked text (strings/comments blanked) plus the
/// fact that Rust forbids struct literals in scrutinee position makes
/// it exact for rustfmt-shaped code: the first `{` at bracket depth
/// zero after `match` opens the body, and `=>` at body depth separates
/// pattern from value.
fn match_arms(masked: &str) -> Vec<Vec<Arm>> {
    let bytes = masked.as_bytes();
    let line_of = |at: usize| masked[..at].bytes().filter(|&b| b == b'\n').count() + 1;
    let mut matches = Vec::new();
    let mut i = 0;
    while let Some(rel) = masked[i..].find("match") {
        let kw = i + rel;
        i = kw + 5;
        // Keyword boundaries: `matches!`, `rematch` etc. don't count.
        let prev_ok = kw == 0
            || !matches!(bytes[kw - 1], b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_' | b'.');
        let next_ok = bytes
            .get(kw + 5)
            .is_some_and(|&b| b == b' ' || b == b'\n' || b == b'(');
        if !prev_ok || !next_ok {
            continue;
        }
        // Find the body-opening brace at bracket depth 0.
        let mut depth = 0i32;
        let mut j = kw + 5;
        let body_open = loop {
            match bytes.get(j) {
                None => break None,
                Some(b'(' | b'[') => depth += 1,
                Some(b')' | b']') => depth -= 1,
                Some(b'{') if depth == 0 => break Some(j),
                Some(b'{') => depth += 1,
                Some(b'}') => depth -= 1,
                Some(b';') if depth == 0 => break None, // not a match expr
                _ => {}
            }
            j += 1;
        };
        let Some(open) = body_open else { continue };
        // Parse arms at body depth.
        let mut arms = Vec::new();
        let mut j = open + 1;
        'arms: loop {
            // Skip whitespace and commas to the pattern start.
            while bytes.get(j).is_some_and(|&b| b.is_ascii_whitespace() || b == b',') {
                j += 1;
            }
            match bytes.get(j) {
                None => break,
                Some(b'}') => break,
                _ => {}
            }
            let pat_start = j;
            // Scan to `=>` at nested depth 0.
            let mut depth = 0i32;
            let arrow = loop {
                match bytes.get(j) {
                    None => break 'arms,
                    Some(b'(' | b'[' | b'{') => depth += 1,
                    Some(b')' | b']' | b'}') => depth -= 1,
                    Some(b'=') if depth == 0 && bytes.get(j + 1) == Some(&b'>') => break j,
                    _ => {}
                }
                j += 1;
            };
            arms.push(Arm {
                pattern: masked[pat_start..arrow].trim().to_string(),
                line: line_of(pat_start),
            });
            // Skip the arm value: a brace block, or up to the `,` / `}`
            // closing the arm at body depth.
            j = arrow + 2;
            while bytes.get(j).is_some_and(|&b| b.is_ascii_whitespace()) {
                j += 1;
            }
            if bytes.get(j) == Some(&b'{') {
                let mut depth = 0i32;
                loop {
                    match bytes.get(j) {
                        None => break 'arms,
                        Some(b'{') => depth += 1,
                        Some(b'}') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                j += 1;
            } else {
                let mut depth = 0i32;
                loop {
                    match bytes.get(j) {
                        None => break 'arms,
                        Some(b'(' | b'[' | b'{') => depth += 1,
                        Some(b')' | b']') => depth -= 1,
                        Some(b'}') if depth == 0 => break, // body close
                        Some(b'}') => depth -= 1,
                        Some(b',') if depth == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
            }
        }
        if !arms.is_empty() {
            matches.push(arms);
        }
        // `i` stays just past the keyword, so nested matches inside arm
        // bodies are found by the outer loop on its next iteration.
    }
    matches
}

/// Is this pattern a silent catch-all: `_`, or a bare lowercase
/// binding (`other`, `mut x`, `ref y`) that swallows every remaining
/// variant without naming any? Bindings that spell the variants out
/// (`other @ (Enum::A | Enum::B)`) are fine and don't match here.
fn is_catch_all(pattern: &str) -> bool {
    // A guard doesn't make the arm name its variants.
    let pat = pattern.split(" if ").next().unwrap_or(pattern).trim();
    let pat = pat.trim_start_matches("ref ").trim_start_matches("mut ").trim();
    pat == "_"
        || (!pat.is_empty()
            && pat != "true"
            && pat != "false"
            && pat.chars().next().is_some_and(|c| c.is_ascii_lowercase() || c == '_')
            && pat.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'))
}

/// `exhaustive-protocol-match`: in non-test code, a `match` with an
/// arm mentioning a protocol enum (`PROTOCOL_ENUMS`) must not also
/// have a `_`/bare-binding catch-all arm.
pub fn check_protocol_match(
    path: &str,
    kind: FileKind,
    scanned: &Scanned,
    scopes: &Scopes,
    out: &mut Vec<Violation>,
) {
    if !matches!(kind, FileKind::Lib | FileKind::Bin) {
        return;
    }
    for arms in match_arms(&scanned.masked) {
        let Some(proto) = PROTOCOL_ENUMS
            .iter()
            .find(|e| arms.iter().any(|a| a.pattern.contains(*e)))
        else {
            continue;
        };
        let enum_name = proto.trim_end_matches(':');
        for arm in &arms {
            if is_catch_all(&arm.pattern)
                && !suppressed(scanned, scopes, arm.line, "exhaustive-protocol-match")
            {
                out.push(Violation {
                    path: path.to_string(),
                    line: arm.line,
                    rule: "exhaustive-protocol-match",
                    message: format!(
                        "catch-all arm `{}` in a match over `{enum_name}` — name every variant (or bind with `x @ (A | B | ...)`) so adding a message type is a compile error, not a silently swallowed message",
                        arm.pattern
                    ),
                });
            }
        }
    }
}

/// Run every rule over one file.
pub fn check_file(path: &str, src: &str) -> Vec<Violation> {
    let scanned = crate::scan::scan(src);
    let scopes = crate::scan::scopes(&scanned);
    let kind = classify(Path::new(path));
    let mut out = Vec::new();
    check_unwrap(path, kind, &scanned, &scopes, &mut out);
    check_alloc(path, &scanned, &scopes, &mut out);
    check_hot_path_lock(path, &scanned, &scopes, &mut out);
    check_nondet(path, &scanned, &scopes, &mut out);
    check_await_guard(path, &scanned, &scopes, &mut out);
    check_metric_names(path, kind, &scanned, &scopes, &mut out);
    check_protocol_match(path, kind, &scanned, &scopes, &mut out);
    out
}
