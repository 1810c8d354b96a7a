//! The lint rules.
//!
//! Every rule pattern-matches on the significant-token stream produced by
//! [`crate::lexer`] — no parsing, no type information. The rules are
//! tuned to this workspace: they know its lock ranks, its pinned
//! bit-identity modules, and its error enums. Findings they cannot prove
//! are not emitted (under-approximation); the runtime rank checker in
//! `crates/core/src/sync.rs` is the sound backstop for what the static
//! side cannot see.
//!
//! Rule catalog (ids as they appear in findings and `lint-waivers.toml`):
//!
//! | id                | what it enforces                                   |
//! |-------------------|----------------------------------------------------|
//! | `lock-discipline` | no raw locking primitives outside `sync.rs`        |
//! | `lock-order`      | static lock acquisitions follow the rank order     |
//! | `determinism`     | no wall-clock/RNG/map-iteration in pinned modules  |
//! | `panic-hygiene`   | no unwrap/expect/panic in non-test service+solver  |
//! | `allow-attr`      | every `#[allow(…)]` is waivered or deleted         |
//! | `stale-marker`    | no lingering task markers in comments              |
//! | `consistency`     | schema versions agree; error variants are alive    |

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use crate::lexer::{self, TokenKind};

/// One lint finding, pointing at a single source line.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id (see the module-level catalog).
    pub rule: &'static str,
    /// Repo-relative path of the offending file.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Exact text of the offending line (what waiver patterns match).
    pub line_text: String,
    /// Human-readable description of the violation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// A significant token, owned, with its test-code classification.
#[derive(Debug, Clone)]
pub struct STok {
    pub text: String,
    pub line: u32,
    pub kind: TokenKind,
    /// Inside a `#[cfg(test)]` item (or a file under a `tests/` dir).
    pub test: bool,
}

/// One lexed source file ready for rule matching.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// The source, split into lines (for finding/waiver text).
    pub lines: Vec<String>,
    /// Significant tokens (trivia removed), test spans marked.
    pub toks: Vec<STok>,
    /// Comment tokens, for the marker rule.
    pub comments: Vec<(u32, String)>,
}

impl SourceFile {
    /// Lexes `source` into a rule-ready file.
    ///
    /// # Errors
    ///
    /// Propagates lexer errors (unterminated literals/comments).
    pub fn parse(path: &str, source: &str) -> Result<SourceFile, String> {
        let tokens = lexer::tokenize(source).map_err(|e| format!("{path}: {e}"))?;
        let mut toks = Vec::new();
        let mut comments = Vec::new();
        for t in &tokens {
            match t.kind {
                TokenKind::Whitespace => {}
                TokenKind::LineComment | TokenKind::BlockComment => {
                    comments.push((t.line, t.text.to_string()));
                }
                _ => toks.push(STok {
                    text: t.text.to_string(),
                    line: t.line,
                    kind: t.kind,
                    test: false,
                }),
            }
        }
        let mut file = SourceFile {
            path: path.to_string(),
            lines: source.lines().map(str::to_string).collect(),
            toks,
            comments,
        };
        mark_test_spans(&mut file);
        Ok(file)
    }

    fn text(&self, i: usize) -> &str {
        self.toks.get(i).map_or("", |t| t.text.as_str())
    }

    fn is_ident(&self, i: usize) -> bool {
        self.toks.get(i).is_some_and(|t| t.kind == TokenKind::Ident)
    }

    fn finding(&self, rule: &'static str, line: u32, message: String) -> Finding {
        Finding {
            rule,
            path: self.path.clone(),
            line,
            line_text: self
                .lines
                .get(line.saturating_sub(1) as usize)
                .cloned()
                .unwrap_or_default(),
            message,
        }
    }
}

/// Index of the token closing the brace opened at `open` (which must be
/// `{`); saturates at the end of the stream if unbalanced.
fn match_brace(file: &SourceFile, open: usize) -> usize {
    let mut depth = 0usize;
    for i in open..file.toks.len() {
        match file.text(i) {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    file.toks.len().saturating_sub(1)
}

/// Index of the token closing the paren opened at `open`.
fn match_paren(file: &SourceFile, open: usize) -> usize {
    let mut depth = 0usize;
    for i in open..file.toks.len() {
        match file.text(i) {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    file.toks.len().saturating_sub(1)
}

/// Index of the `]` closing the attribute bracket at `open`.
fn match_bracket(file: &SourceFile, open: usize) -> usize {
    let mut depth = 0usize;
    for i in open..file.toks.len() {
        match file.text(i) {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    file.toks.len().saturating_sub(1)
}

/// Marks tokens covered by `#[cfg(test)]` items (and whole files under a
/// `tests/` directory) as test code.
fn mark_test_spans(file: &mut SourceFile) {
    if file.path.contains("/tests/") || file.path.starts_with("tests/") {
        for t in &mut file.toks {
            t.test = true;
        }
        return;
    }
    let mut i = 0usize;
    while i < file.toks.len() {
        let is_cfg_test = file.text(i) == "#"
            && file.text(i + 1) == "["
            && file.text(i + 2) == "cfg"
            && file.text(i + 3) == "("
            && file.text(i + 4) == "test"
            && file.text(i + 5) == ")"
            && file.text(i + 6) == "]";
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Skip any further attributes stacked on the same item.
        let mut j = i + 7;
        while file.text(j) == "#" && file.text(j + 1) == "[" {
            j = match_bracket(file, j + 1) + 1;
        }
        // The item ends at its matching `}` (or at `;` for bodyless ones).
        let mut end = file.toks.len().saturating_sub(1);
        for k in j..file.toks.len() {
            match file.text(k) {
                ";" => {
                    end = k;
                    break;
                }
                "{" => {
                    end = match_brace(file, k);
                    break;
                }
                _ => {}
            }
        }
        for t in &mut file.toks[i..=end] {
            t.test = true;
        }
        i = end + 1;
    }
}

// ---------------------------------------------------------------------------
// lock-discipline
// ---------------------------------------------------------------------------

/// Raw locking primitives are only allowed inside `crates/core/src/sync.rs`
/// — everything else must go through the ranked wrappers, or the runtime
/// rank checker has blind spots.
pub fn lock_discipline(file: &SourceFile, out: &mut Vec<Finding>) {
    if file.path.ends_with("crates/core/src/sync.rs") {
        return;
    }
    const RAW_TYPES: &[&str] = &["Mutex", "MutexGuard", "Condvar", "RwLock", "PoisonError"];
    const RAW_METHODS: &[&str] = &["lock", "try_lock", "wait_timeout", "wait_while"];
    for i in 0..file.toks.len() {
        if !file.is_ident(i) {
            continue;
        }
        let t = file.text(i);
        if RAW_TYPES.contains(&t) {
            out.push(file.finding(
                "lock-discipline",
                file.toks[i].line,
                format!(
                    "raw `{t}` outside crates/core/src/sync.rs; use the ranked primitives \
                     (`sync::RankedMutex`, `sync::lock`, `sync::wait`)"
                ),
            ));
        } else if RAW_METHODS.contains(&t)
            && file.text(i + 1) == "("
            && file.text(i.wrapping_sub(1)) == "."
        {
            out.push(file.finding(
                "lock-discipline",
                file.toks[i].line,
                format!(
                    "raw `.{t}(…)` method call outside crates/core/src/sync.rs; acquire locks \
                     via the ranked free functions so the rank checker sees them"
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// determinism
// ---------------------------------------------------------------------------

/// Modules whose outputs are pinned bit-identical across runs and thread
/// schedules. Wall-clock reads, randomness and hash-map iteration order
/// are all nondeterminism that could leak into plan bits.
///
/// The `crates/core/src/solver/` entry is a directory match and covers
/// every kernel under it — in particular `solver/kernel.rs`, the
/// branch-free quantized DP kernels whose select/reconstruct loops are
/// exactly the code the bit-identity pins run through (see
/// `kernel_module_is_determinism_pinned`). New solver kernels are picked
/// up automatically; do not narrow this to a file list.
///
/// `artifact.rs` is pinned because the serving hot path caches its JSON
/// rendering verbatim: the cached bytes are only byte-identical to a
/// fresh `to_artifact().to_json()` if that rendering is deterministic.
///
/// `obs/` is pinned so the observability subsystem cannot quietly grow
/// clock reads: its receipts hash the served bytes and must stay a pure
/// function of them, with the single monotonic-clock site explicitly
/// waivered rather than exempted wholesale.
///
/// `planner.rs` is pinned because it runs the reserve-grid search whose
/// winners are pinned bit-identical (`tests/plan_goldens.rs`): a clock or
/// hash-order read there would pick candidates nondeterministically.
fn pinned(path: &str) -> bool {
    path.contains("crates/core/src/solver/")
        || path.contains("crates/core/src/service/")
        || path.contains("crates/core/src/server/")
        || path.contains("crates/core/src/registry/")
        || path.contains("crates/core/src/obs/")
        || path.ends_with("crates/core/src/schedule.rs")
        || path.ends_with("crates/core/src/planner.rs")
        || path.ends_with("crates/core/src/mckp.rs")
        || path.ends_with("crates/core/src/seqdp.rs")
        || path.ends_with("crates/core/src/artifact.rs")
}

/// Flags nondeterminism sources in pinned modules (non-test code only).
pub fn determinism(file: &SourceFile, out: &mut Vec<Finding>) {
    if !pinned(&file.path) {
        return;
    }
    const MAP_ITERATORS: &[&str] = &[
        "iter",
        "iter_mut",
        "keys",
        "values",
        "values_mut",
        "drain",
        "retain",
        "into_iter",
        "into_keys",
        "into_values",
    ];
    // Names declared as HashMap/HashSet in this file (fields, params,
    // lets) — iterating them observes hash order.
    let mut hashed: HashSet<&str> = HashSet::new();
    for i in 0..file.toks.len() {
        if file.text(i) != "HashMap" && file.text(i) != "HashSet" {
            continue;
        }
        let field_decl = i >= 2 && file.text(i - 1) == ":" && file.is_ident(i - 2);
        let let_binding = i >= 3
            && file.text(i - 1) == "="
            && file.is_ident(i - 2)
            && (file.text(i - 3) == "let" || file.text(i - 3) == "mut");
        if field_decl || let_binding {
            hashed.insert(file.text(i - 2));
        }
    }
    let hashed: HashSet<String> = hashed.iter().map(|s| s.to_string()).collect();

    for i in 0..file.toks.len() {
        if file.toks[i].test || !file.is_ident(i) {
            continue;
        }
        let t = file.text(i);
        let line = file.toks[i].line;
        if t == "Instant" && file.text(i + 1) == "::" && file.text(i + 2) == "now" {
            out.push(file.finding(
                "determinism",
                line,
                "wall-clock read (`Instant::now`) in a bit-identity-pinned module".into(),
            ));
        } else if t == "SystemTime" {
            out.push(file.finding(
                "determinism",
                line,
                "wall-clock type (`SystemTime`) in a bit-identity-pinned module".into(),
            ));
        } else if matches!(t, "thread_rng" | "from_entropy" | "random")
            || (t == "rand" && file.text(i + 1) == "::")
        {
            out.push(file.finding(
                "determinism",
                line,
                format!("randomness source (`{t}`) in a bit-identity-pinned module"),
            ));
        } else if hashed.contains(t)
            && file.text(i + 1) == "."
            && MAP_ITERATORS.contains(&file.text(i + 2))
            && file.text(i + 3) == "("
        {
            out.push(file.finding(
                "determinism",
                line,
                format!(
                    "iteration over hash-ordered `{t}` (`.{}()`) in a pinned module; \
                     iterate a sorted view or an ordered container instead",
                    file.text(i + 2)
                ),
            ));
        } else if hashed.contains(t)
            && (file.text(i.wrapping_sub(1)) == "in"
                || (file.text(i.wrapping_sub(1)) == "&" && file.text(i.wrapping_sub(2)) == "in")
                || (file.text(i.wrapping_sub(1)) == "mut"
                    && file.text(i.wrapping_sub(2)) == "&"
                    && file.text(i.wrapping_sub(3)) == "in"))
        {
            out.push(file.finding(
                "determinism",
                line,
                format!("`for … in {t}` iterates a hash-ordered container in a pinned module"),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// panic-hygiene
// ---------------------------------------------------------------------------

/// Serving-stack and solver code must not panic: a worker panic tears
/// down the service and poisons nothing useful. Non-test code under
/// `service/`, `server/`, `registry/` and `solver/` must use the typed
/// error paths (`ServiceError`/`ServerError`/`RegistryError`/
/// `DaeDvfsError`) — on the HTTP and registry I/O paths a panic would
/// turn one bad connection or one corrupt file into a dead server.
pub fn panic_hygiene(file: &SourceFile, out: &mut Vec<Finding>) {
    if !(file.path.contains("crates/core/src/service/")
        || file.path.contains("crates/core/src/server/")
        || file.path.contains("crates/core/src/registry/")
        || file.path.contains("crates/core/src/solver/")
        || file.path.contains("crates/core/src/obs/"))
    {
        return;
    }
    const MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
    for i in 0..file.toks.len() {
        if file.toks[i].test || !file.is_ident(i) {
            continue;
        }
        let t = file.text(i);
        let line = file.toks[i].line;
        if (t == "unwrap" || t == "expect")
            && file.text(i.wrapping_sub(1)) == "."
            && file.text(i + 1) == "("
        {
            out.push(file.finding(
                "panic-hygiene",
                line,
                format!(
                    "`.{t}()` in non-test serving/solver code; return the typed error \
                     (`ServiceError`/`DaeDvfsError`) instead"
                ),
            ));
        } else if MACROS.contains(&t) && file.text(i + 1) == "!" {
            out.push(file.finding(
                "panic-hygiene",
                line,
                format!("`{t}!` in non-test serving/solver code; use the typed error paths"),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// allow-attr / stale-marker
// ---------------------------------------------------------------------------

/// Every `#[allow(…)]` is either justified (in `lint-waivers.toml`, with
/// a reason) or deleted. Silent lint exemptions rot.
pub fn allow_attr(file: &SourceFile, out: &mut Vec<Finding>) {
    for i in 0..file.toks.len() {
        if file.toks[i].test || file.text(i) != "#" {
            continue;
        }
        let open = if file.text(i + 1) == "[" {
            i + 1
        } else if file.text(i + 1) == "!" && file.text(i + 2) == "[" {
            i + 2
        } else {
            continue;
        };
        if file.text(open + 1) == "allow" {
            out.push(file.finding(
                "allow-attr",
                file.toks[i].line,
                format!(
                    "`#[allow({}…)]` — delete the exemption or waiver it with a reason",
                    file.text(open + 3)
                ),
            ));
        }
    }
}

/// Lingering task markers in comments: resolve them or turn them into
/// tracked roadmap items. (Marker words are spelled out of order here so
/// the rule does not flag its own implementation.)
pub fn stale_marker(file: &SourceFile, out: &mut Vec<Finding>) {
    let markers = [
        concat!("TO", "DO"),
        concat!("FIX", "ME"),
        concat!("XX", "X:"),
    ];
    for (line, text) in &file.comments {
        for m in markers {
            if text.contains(m) {
                out.push(file.finding(
                    "stale-marker",
                    *line,
                    format!("stale `{m}` marker in a comment; resolve it or move it to ROADMAP.md"),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// lock-order (static rank analysis)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Default)]
struct FnInfo {
    /// Ranks acquired anywhere in the dynamic extent of a call.
    transient: BTreeSet<u16>,
    /// Rank of the guard this function returns, if its return type is a
    /// `RankedGuard`.
    returns_guard: Option<u16>,
    /// Calls to other known functions: `(impl_type, method)` keys.
    edges: Vec<(String, String)>,
}

#[derive(Debug)]
struct FnSite {
    file: usize,
    impl_type: String,
    name: String,
    body: (usize, usize),
}

/// The workspace's lock-rank model, extracted from `sync.rs` and the
/// `RankedMutex::new(rank::X, …)` construction sites.
#[derive(Debug, Default)]
pub struct RankModel {
    /// Rank-const name → (level, display name), e.g. `QUEUE → (10, "queue")`.
    pub levels: BTreeMap<String, (u16, String)>,
    /// Field name → level, e.g. `queue → 10`, `shards → 20`.
    pub fields: BTreeMap<String, u16>,
}

fn display_rank(model: &RankModel, level: u16) -> String {
    model
        .levels
        .values()
        .find(|(l, _)| *l == level)
        .map(|(_, n)| format!("`{n}` (rank {level})"))
        .unwrap_or_else(|| format!("rank {level}"))
}

/// Extracts the rank model: levels from the `LockRank` consts in
/// `sync.rs`, field ranks from every `RankedMutex::new(rank::X, …)`.
pub fn rank_model(files: &[SourceFile]) -> RankModel {
    let mut model = RankModel::default();
    for file in files {
        if !file.path.ends_with("crates/core/src/sync.rs") {
            continue;
        }
        for i in 0..file.toks.len() {
            if file.text(i) == "const"
                && file.is_ident(i + 1)
                && file.text(i + 2) == ":"
                && file.text(i + 3) == "LockRank"
            {
                let name = file.text(i + 1).to_string();
                let mut level = None;
                let mut display = None;
                for j in i + 4..(i + 24).min(file.toks.len()) {
                    if file.text(j) == "level" && file.text(j + 1) == ":" {
                        level = file.text(j + 2).parse::<u16>().ok();
                    }
                    if file.text(j) == "name" && file.text(j + 1) == ":" {
                        display = Some(file.text(j + 2).trim_matches('"').to_string());
                    }
                    if file.text(j) == ";" {
                        break;
                    }
                }
                if let (Some(level), Some(display)) = (level, display) {
                    model.levels.insert(name, (level, display));
                }
            }
        }
    }
    for file in files {
        for i in 0..file.toks.len() {
            if file.text(i) == "RankedMutex"
                && file.text(i + 1) == "::"
                && file.text(i + 2) == "new"
                && file.text(i + 3) == "("
                && file.text(i + 4) == "rank"
                && file.text(i + 5) == "::"
            {
                let Some(&(level, _)) = model.levels.get(file.text(i + 6)) else {
                    continue;
                };
                // The owning field is the nearest preceding `name:`.
                for j in (i.saturating_sub(40)..i).rev() {
                    if file.is_ident(j) && file.text(j + 1) == ":" {
                        model.fields.insert(file.text(j).to_string(), level);
                        break;
                    }
                }
            }
        }
    }
    model
}

/// Per-file map from binding/field names to the impl types they might
/// carry (only types that have lockful methods matter). A name can be
/// declared with different types in different structs of one file, so
/// this is a multi-map; call resolution unions the candidates.
fn local_types(file: &SourceFile, known: &HashSet<String>) -> HashMap<String, BTreeSet<String>> {
    let mut map: HashMap<String, BTreeSet<String>> = HashMap::new();
    for i in 0..file.toks.len() {
        // `name: …Type…` (fields and params).
        if file.is_ident(i) && file.text(i + 1) == ":" {
            for j in i + 2..(i + 14).min(file.toks.len()) {
                let t = file.text(j);
                if matches!(t, "," | ";" | ")" | "{" | "=") {
                    break;
                }
                if known.contains(t) {
                    map.entry(file.text(i).to_string())
                        .or_default()
                        .insert(t.to_string());
                    break;
                }
            }
        }
        // `let [mut] name = Type::…`.
        if file.text(i) == "let" {
            let (name_at, eq_at) = if file.text(i + 1) == "mut" {
                (i + 2, i + 3)
            } else {
                (i + 1, i + 2)
            };
            if file.is_ident(name_at) && file.text(eq_at) == "=" {
                let t = file.text(eq_at + 1);
                if known.contains(t) && file.text(eq_at + 2) == "::" {
                    map.entry(file.text(name_at).to_string())
                        .or_default()
                        .insert(t.to_string());
                }
            }
        }
    }
    map
}

/// Enumerates impl spans `(type name, body range)` in a file.
fn impl_spans(file: &SourceFile) -> Vec<(String, usize, usize, bool)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < file.toks.len() {
        if file.text(i) != "impl" {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        // Skip the generic parameter list.
        if file.text(j) == "<" {
            let mut depth = 0i32;
            while j < file.toks.len() {
                match file.text(j) {
                    "<" | "<<" => depth += if file.text(j) == "<<" { 2 } else { 1 },
                    ">" => depth -= 1,
                    ">>" => depth -= 2,
                    _ => {}
                }
                j += 1;
                if depth == 0 {
                    break;
                }
            }
        }
        // Collect the implemented type path; `for` restarts collection
        // (trait impls name the self type after `for`).
        let mut path: Vec<String> = Vec::new();
        let mut is_from_impl = false;
        let mut brace = None;
        let mut depth = 0i32;
        while j < file.toks.len() {
            match file.text(j) {
                "{" if depth == 0 => {
                    brace = Some(j);
                    break;
                }
                ";" if depth == 0 => break,
                "<" => depth += 1,
                ">" => depth -= 1,
                ">>" => depth -= 2,
                "for" if depth == 0 => path.clear(),
                t if depth == 0 && file.is_ident(j) => {
                    if t == "From" {
                        is_from_impl = true;
                    }
                    path.push(t.to_string());
                }
                _ => {}
            }
            j += 1;
        }
        let Some(open) = brace else {
            i = j + 1;
            continue;
        };
        let close = match_brace(file, open);
        if let Some(name) = path.last() {
            spans.push((name.clone(), open, close, is_from_impl));
        }
        i = open + 1;
    }
    spans
}

/// Enumerates function bodies with their enclosing impl type.
fn fn_sites(files: &[SourceFile]) -> Vec<FnSite> {
    let mut sites = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        let impls = impl_spans(file);
        let mut i = 0usize;
        while i < file.toks.len() {
            if file.text(i) != "fn" || !file.is_ident(i + 1) {
                i += 1;
                continue;
            }
            let name = file.text(i + 1).to_string();
            // Find the parameter list (skipping any generic params).
            let mut j = i + 2;
            let mut angle = 0i32;
            while j < file.toks.len() {
                match file.text(j) {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    ">>" => angle -= 2,
                    "(" if angle <= 0 => break,
                    "{" | ";" => break,
                    _ => {}
                }
                j += 1;
            }
            if file.text(j) != "(" {
                i = j;
                continue;
            }
            let params_close = match_paren(file, j);
            let mut body = None;
            for k in params_close + 1..file.toks.len() {
                match file.text(k) {
                    "{" => {
                        body = Some((k, match_brace(file, k)));
                        break;
                    }
                    ";" => break,
                    _ => {}
                }
            }
            let Some(body) = body else {
                i = params_close + 1;
                continue;
            };
            let impl_type = impls
                .iter()
                .find(|(_, open, close, _)| body.0 > *open && body.1 <= *close)
                .map(|(n, _, _, _)| n.clone())
                .unwrap_or_default();
            sites.push(FnSite {
                file: fi,
                impl_type,
                name,
                body,
            });
            i = body.0 + 1;
        }
    }
    sites
}

/// Candidate impl types for a method call's receiver ident.
fn receiver_types(
    recv: &str,
    self_type: &str,
    types: &HashMap<String, BTreeSet<String>>,
) -> Vec<String> {
    if recv == "self" {
        vec![self_type.to_string()]
    } else {
        types
            .get(recv)
            .map(|set| set.iter().cloned().collect())
            .unwrap_or_default()
    }
}

/// Rank level acquired by a free `lock(…)` call at token `i` (the `lock`
/// ident), resolved from the argument's field name; `None` if the
/// argument is not a known ranked field.
fn direct_lock_level(file: &SourceFile, i: usize, model: &RankModel) -> Option<u16> {
    if file.text(i) != "lock" || file.text(i + 1) != "(" || file.text(i.wrapping_sub(1)) == "." {
        return None;
    }
    let close = match_paren(file, i + 1);
    let mut level = None;
    for j in i + 2..close {
        if file.is_ident(j) {
            if let Some(&l) = model.fields.get(file.text(j)) {
                level = Some(l);
            }
        }
    }
    level
}

/// If the expression ending just before token `start` is bound with
/// `[let [mut]] name =`, returns the bound name.
fn binding_before(file: &SourceFile, start: usize) -> Option<String> {
    let mut b = start.checked_sub(1)?;
    // Step back over a leading path prefix (`sync::lock`).
    while file.text(b) == "::" {
        b = b.checked_sub(2)?;
    }
    if file.text(b) != "=" {
        return None;
    }
    let name_at = b.checked_sub(1)?;
    if file.is_ident(name_at) {
        Some(file.text(name_at).to_string())
    } else {
        None
    }
}

/// The static half of the ranked-lock checker: simulates lock acquisition
/// order per function, resolving method calls through interprocedural
/// summaries (what ranks each function transitively acquires). Reports a
/// finding — citing **both** acquisition sites — whenever a lock is
/// acquired at a rank ≤ one already held.
pub fn lock_order(files: &[SourceFile], out: &mut Vec<Finding>) {
    let model = rank_model(files);
    if model.levels.is_empty() {
        return;
    }
    let core: Vec<usize> = (0..files.len())
        .filter(|&i| {
            files[i].path.contains("crates/core/src/")
                && !files[i].path.ends_with("crates/core/src/sync.rs")
        })
        .collect();
    let core_files: Vec<&SourceFile> = core.iter().map(|&i| &files[i]).collect();
    // Re-index sites against the filtered list.
    let owned: Vec<SourceFile> = core_files.iter().map(|f| (*f).clone()).collect();
    let sites = fn_sites(&owned);
    let known: HashSet<String> = sites
        .iter()
        .map(|s| s.impl_type.clone())
        .filter(|t| !t.is_empty())
        .collect();
    let locals: Vec<HashMap<String, BTreeSet<String>>> =
        owned.iter().map(|f| local_types(f, &known)).collect();

    // Direct info + call edges per function.
    let mut infos: BTreeMap<(String, String), FnInfo> = BTreeMap::new();
    for site in &sites {
        let file = &owned[site.file];
        let types = &locals[site.file];
        let key = (site.impl_type.clone(), site.name.clone());
        let info = infos.entry(key).or_default();
        let returns_ranked_guard =
            (site.body.0.saturating_sub(12)..site.body.0).any(|k| file.text(k) == "RankedGuard");
        for i in site.body.0..=site.body.1 {
            if let Some(level) = direct_lock_level(file, i, &model) {
                info.transient.insert(level);
                if returns_ranked_guard {
                    info.returns_guard = Some(info.returns_guard.map_or(level, |g| g.max(level)));
                }
            }
            if file.text(i + 1) == "(" && file.is_ident(i) && file.text(i.wrapping_sub(1)) == "." {
                let recv = file.text(i.wrapping_sub(2));
                for rtype in receiver_types(recv, &site.impl_type, types) {
                    info.edges.push((rtype, file.text(i).to_string()));
                }
            }
        }
    }
    // Fixpoint: propagate transitive acquisitions through call edges.
    loop {
        let snapshot = infos.clone();
        let mut changed = false;
        for info in infos.values_mut() {
            for edge in &info.edges {
                if let Some(callee) = snapshot.get(edge) {
                    let before = info.transient.len();
                    info.transient.extend(callee.transient.iter().copied());
                    info.transient.extend(callee.returns_guard);
                    changed |= info.transient.len() != before;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Per-function acquisition-order simulation.
    for site in &sites {
        let file = &owned[site.file];
        let types = &locals[site.file];
        let mut held: Vec<(String, u16, i32, u32)> = Vec::new();
        let mut depth = 0i32;
        for i in site.body.0..=site.body.1 {
            match file.text(i) {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    held.retain(|h| h.2 <= depth);
                }
                "drop" if file.text(i + 1) == "(" && file.text(i + 3) == ")" => {
                    let dropped = file.text(i + 2).to_string();
                    held.retain(|h| h.0 != dropped);
                }
                _ => {}
            }
            let line = file.toks.get(i).map_or(0, |t| t.line);
            if let Some(level) = direct_lock_level(file, i, &model) {
                for h in &held {
                    if h.1 >= level {
                        out.push(file.finding(
                            "lock-order",
                            line,
                            format!(
                                "acquires {} at {}:{} while `{}` ({}) acquired at {}:{} is \
                                 still held; ranks must strictly increase",
                                display_rank(&model, level),
                                file.path,
                                line,
                                h.0,
                                display_rank(&model, h.1),
                                file.path,
                                h.3,
                            ),
                        ));
                    }
                }
                if let Some(name) = binding_before(file, i) {
                    held.push((name, level, depth, line));
                }
            } else if file.text(i + 1) == "("
                && file.is_ident(i)
                && file.text(i.wrapping_sub(1)) == "."
            {
                let recv = file.text(i.wrapping_sub(2));
                for rtype in receiver_types(recv, &site.impl_type, types) {
                    let Some(callee) = infos.get(&(rtype.clone(), file.text(i).to_string())) else {
                        continue;
                    };
                    let mut acquired: BTreeSet<u16> = callee.transient.clone();
                    acquired.extend(callee.returns_guard);
                    for level in acquired {
                        for h in &held {
                            if h.1 >= level {
                                out.push(file.finding(
                                    "lock-order",
                                    line,
                                    format!(
                                        "calls `{}::{}` at {}:{} (which acquires {}) while `{}` \
                                         ({}) acquired at {}:{} is still held; ranks must \
                                         strictly increase",
                                        rtype,
                                        file.text(i),
                                        file.path,
                                        line,
                                        display_rank(&model, level),
                                        h.0,
                                        display_rank(&model, h.1),
                                        file.path,
                                        h.3,
                                    ),
                                ));
                            }
                        }
                    }
                    if let Some(guard_level) = callee.returns_guard {
                        if let Some(name) = binding_before(file, i.wrapping_sub(2)) {
                            held.push((name, guard_level, depth, line));
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// consistency
// ---------------------------------------------------------------------------

/// Non-`.rs` documents the consistency rule cross-checks.
#[derive(Debug, Default)]
pub struct AuxDocs {
    /// `(path, content)` of `DESIGN.md`, when present.
    pub design_md: Option<(String, String)>,
    /// `(path, content)` of `BENCH_SUMMARY.json`, when present.
    pub bench_summary: Option<(String, String)>,
}

fn aux_finding(path: &str, line: u32, text: &str, message: String) -> Finding {
    Finding {
        rule: "consistency",
        path: path.to_string(),
        line,
        line_text: text.to_string(),
        message,
    }
}

/// Cross-artifact consistency: the bench-summary schema version must
/// agree everywhere it is spelled, and every variant of the public error
/// enums must be constructed or matched somewhere real (not just in its
/// own `Display`/`Error` impls).
pub fn consistency(files: &[SourceFile], aux: &AuxDocs, out: &mut Vec<Finding>) {
    schema_versions(files, aux, out);
    dead_variants(files, out);
}

fn schema_versions(files: &[SourceFile], aux: &AuxDocs, out: &mut Vec<Finding>) {
    let mut expected = None;
    for file in files {
        if !file.path.ends_with("crates/bench/src/json.rs") {
            continue;
        }
        for i in 0..file.toks.len() {
            if file.text(i) == "BENCH_SUMMARY_SCHEMA_VERSION"
                && file.text(i + 1) == ":"
                && file.text(i + 3) == "="
            {
                if let Ok(v) = file.text(i + 4).parse::<u64>() {
                    expected = Some((v, file.toks[i].line));
                }
            }
        }
        if expected.is_none() {
            out.push(
                file.finding(
                    "consistency",
                    1,
                    "crates/bench/src/json.rs no longer defines BENCH_SUMMARY_SCHEMA_VERSION \
                 (the schema single source of truth)"
                        .into(),
                ),
            );
        }
    }
    let Some((expected, _)) = expected else {
        return;
    };
    if let Some((path, content)) = &aux.bench_summary {
        let mut seen = false;
        for (idx, line) in content.lines().enumerate() {
            if let Some(rest) = line.split("\"schema_version\"").nth(1) {
                seen = true;
                let digits: String = rest
                    .chars()
                    .skip_while(|c| !c.is_ascii_digit())
                    .take_while(char::is_ascii_digit)
                    .collect();
                if digits.parse::<u64>() != Ok(expected) {
                    out.push(aux_finding(
                        path,
                        (idx + 1) as u32,
                        line,
                        format!(
                            "schema_version {digits} disagrees with \
                             BENCH_SUMMARY_SCHEMA_VERSION = {expected} in crates/bench/src/json.rs"
                        ),
                    ));
                }
            }
        }
        if !seen {
            out.push(aux_finding(
                path,
                1,
                "",
                "BENCH_SUMMARY.json carries no schema_version field".into(),
            ));
        }
    }
    if let Some((path, content)) = &aux.design_md {
        for (idx, line) in content.lines().enumerate() {
            let mut rest = line;
            while let Some(at) = rest.find("schema v") {
                rest = &rest[at + "schema v".len()..];
                let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
                if digits.is_empty() {
                    continue;
                }
                if digits.parse::<u64>() != Ok(expected) {
                    out.push(aux_finding(
                        path,
                        (idx + 1) as u32,
                        line,
                        format!(
                            "mention of `schema v{digits}` disagrees with \
                             BENCH_SUMMARY_SCHEMA_VERSION = {expected} in crates/bench/src/json.rs"
                        ),
                    ));
                }
            }
        }
    }
}

/// The enums whose variants must all be alive.
const CHECKED_ENUMS: &[&str] = &[
    "DaeDvfsError",
    "ServiceError",
    "RegistryError",
    "ServerError",
];

fn dead_variants(files: &[SourceFile], out: &mut Vec<Finding>) {
    let Some(error_rs) = files
        .iter()
        .find(|f| f.path.ends_with("crates/core/src/error.rs"))
    else {
        return;
    };
    // Variant inventory + the error.rs regions that do not count as uses
    // (the enum definitions themselves and the Display/Error impls).
    let mut variants: Vec<(String, String, u32)> = Vec::new();
    let mut excluded: Vec<(usize, usize)> = Vec::new();
    for i in 0..error_rs.toks.len() {
        if error_rs.text(i) != "enum" || !CHECKED_ENUMS.contains(&error_rs.text(i + 1)) {
            continue;
        }
        let enum_name = error_rs.text(i + 1).to_string();
        let mut open = i + 2;
        while error_rs.text(open) != "{" && open < error_rs.toks.len() {
            open += 1;
        }
        let close = match_brace(error_rs, open);
        excluded.push((i, close));
        let mut j = open + 1;
        let mut expect_variant = true;
        while j < close {
            match error_rs.text(j) {
                "#" if error_rs.text(j + 1) == "[" => j = match_bracket(error_rs, j + 1) + 1,
                "{" => j = match_brace(error_rs, j) + 1,
                "(" => j = match_paren(error_rs, j) + 1,
                "," => {
                    expect_variant = true;
                    j += 1;
                }
                _ => {
                    if expect_variant && error_rs.is_ident(j) {
                        variants.push((
                            enum_name.clone(),
                            error_rs.text(j).to_string(),
                            error_rs.toks[j].line,
                        ));
                        expect_variant = false;
                    }
                    j += 1;
                }
            }
        }
    }
    for (name, open, close, is_from) in impl_spans(error_rs) {
        if CHECKED_ENUMS.contains(&name.as_str()) && !is_from {
            excluded.push((open, close));
        }
    }

    let mut alive: HashSet<(String, String)> = HashSet::new();
    for file in files {
        for i in 0..file.toks.len() {
            if file.toks[i].test
                || !CHECKED_ENUMS.contains(&file.text(i))
                || file.text(i + 1) != "::"
                || !file.is_ident(i + 2)
            {
                continue;
            }
            let in_excluded =
                std::ptr::eq(file, error_rs) && excluded.iter().any(|&(a, b)| i >= a && i <= b);
            if !in_excluded {
                alive.insert((file.text(i).to_string(), file.text(i + 2).to_string()));
            }
        }
    }
    for (enum_name, variant, line) in variants {
        if !alive.contains(&(enum_name.clone(), variant.clone())) {
            out.push(error_rs.finding(
                "consistency",
                line,
                format!(
                    "`{enum_name}::{variant}` is never constructed or matched outside its own \
                     Display/Error impls — dead variant; remove it or wire it up"
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// driver
// ---------------------------------------------------------------------------

/// Runs every rule over the lexed workspace. Findings come back in a
/// deterministic order (path, then line, then rule).
pub fn check_all(files: &[SourceFile], aux: &AuxDocs) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in files {
        lock_discipline(file, &mut out);
        determinism(file, &mut out);
        panic_hygiene(file, &mut out);
        allow_attr(file, &mut out);
        stale_marker(file, &mut out);
    }
    lock_order(files, &mut out);
    consistency(files, aux, &mut out);
    out.sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(path: &str, src: &str) -> SourceFile {
        SourceFile::parse(path, src).expect("parse")
    }

    /// A miniature sync.rs defining two ranks, plus a consumer module —
    /// enough to exercise the full static lock-order pipeline.
    const MINI_SYNC: &str = r#"
pub(crate) struct LockRank { pub level: u16, pub name: &'static str }
pub(crate) mod rank {
    use super::LockRank;
    pub(crate) const QUEUE: LockRank = LockRank { level: 10, name: "queue" };
    pub(crate) const CACHE_SHARD: LockRank = LockRank { level: 20, name: "cache-shard" };
}
"#;

    fn mini_consumer(body: &str) -> String {
        format!(
            r#"
struct Service {{
    queue: RankedMutex<Vec<u32>>,
    shards: RankedMutex<Vec<u32>>,
    cache: Cache,
}}
struct Cache;
impl Cache {{
    fn complete(&self) {{ let _x = 1; }}
}}
impl Service {{
    fn build() -> Service {{
        Service {{
            queue: RankedMutex::new(rank::QUEUE, Vec::new()),
            shards: RankedMutex::new(rank::CACHE_SHARD, Vec::new()),
            cache: Cache,
        }}
    }}
    fn shard(&self) -> RankedGuard<'_, Vec<u32>> {{
        lock(&self.shards)
    }}
    {body}
}}
"#
        )
    }

    fn lock_order_findings(body: &str) -> Vec<Finding> {
        let files = vec![
            parse("crates/core/src/sync.rs", MINI_SYNC),
            parse("crates/core/src/service/front.rs", &mini_consumer(body)),
        ];
        let mut out = Vec::new();
        lock_order(&files, &mut out);
        out
    }

    #[test]
    fn ascending_order_is_clean() {
        let findings = lock_order_findings(
            "fn ok(&self) { let q = lock(&self.queue); let s = lock(&self.shards); drop(s); drop(q); }",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn inverted_direct_acquisition_reports_both_sites() {
        let findings = lock_order_findings(
            "fn bad(&self) { let s = lock(&self.shards); let q = lock(&self.queue); drop(q); drop(s); }",
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        let msg = &findings[0].message;
        assert!(msg.contains("`queue` (rank 10)"), "{msg}");
        assert!(msg.contains("`cache-shard` (rank 20)"), "{msg}");
        // Both acquisition sites are cited.
        assert_eq!(msg.matches("front.rs:").count(), 2, "{msg}");
    }

    #[test]
    fn dropping_the_guard_clears_the_hold() {
        let findings = lock_order_findings(
            "fn ok(&self) { let s = lock(&self.shards); drop(s); let q = lock(&self.queue); drop(q); }",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn scope_exit_clears_the_hold() {
        let findings = lock_order_findings(
            "fn ok(&self) { { let s = lock(&self.shards); s.len(); } let q = lock(&self.queue); drop(q); }",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn guard_returning_helper_counts_as_its_rank() {
        // `shard()` returns a RankedGuard at rank 20; acquiring queue (10)
        // while that guard is live is an inversion.
        let findings = lock_order_findings(
            "fn bad(&self) { let s = self.shard(); let q = lock(&self.queue); drop(q); drop(s); }",
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("`queue` (rank 10)"));
    }

    #[test]
    fn interprocedural_summary_catches_lockful_callees() {
        // `helper` locks the shards; calling it with the shard guard held
        // is a same-rank reacquisition.
        let findings = lock_order_findings(
            "fn helper(&self) { let s = lock(&self.shards); drop(s); } \
             fn bad(&self) { let s = self.shard(); self.helper(); drop(s); }",
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("helper"), "{findings:?}");
    }

    #[test]
    fn lock_discipline_flags_raw_primitives_and_methods() {
        let file = parse(
            "crates/core/src/service/front.rs",
            "use std::sync::Mutex;\nfn f(m: &Mutex<u32>) { let _g = m.lock().unwrap(); }",
        );
        let mut out = Vec::new();
        lock_discipline(&file, &mut out);
        assert_eq!(out.len(), 3, "{out:?}"); // Mutex ident twice + .lock(
        let sync = parse("crates/core/src/sync.rs", "use std::sync::Mutex;");
        let mut out = Vec::new();
        lock_discipline(&sync, &mut out);
        assert!(out.is_empty(), "sync.rs is the one allowed home");
    }

    #[test]
    fn ranked_wrappers_and_free_lock_are_allowed() {
        let file = parse(
            "crates/core/src/service/front.rs",
            "fn f(m: &RankedMutex<u32>) { let _g = lock(m); }",
        );
        let mut out = Vec::new();
        lock_discipline(&file, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn determinism_flags_clock_rng_and_map_iteration_in_pinned_code() {
        let src = "struct S { m: HashMap<u32, u32> }\n\
                   fn f(s: &S) -> u64 {\n\
                       let t = Instant::now();\n\
                       for (k, _v) in &s.m {}\n\
                       let _ = s.m.iter();\n\
                       0\n\
                   }";
        // Hash-name resolution is per-file and the for-loop matches on the
        // bare name, so alias the field into a local in the test source.
        let src = src.replace("&s.m", "&m").replace("s.m.", "m.");
        let src = format!(
            "{}\nfn g(m: HashMap<u32, u32>) {{ let _ = m.keys(); }}",
            src
        );
        let file = parse("crates/core/src/solver/mckp.rs", &src);
        let mut out = Vec::new();
        determinism(&file, &mut out);
        assert!(out.iter().any(|f| f.message.contains("Instant::now")));
        assert!(out.iter().any(|f| f.message.contains("for … in m")));
        assert!(out.iter().any(|f| f.message.contains(".keys()")));
        // The same source outside a pinned module is fine.
        let unpinned = parse("crates/core/src/report.rs", &src);
        let mut out = Vec::new();
        determinism(&unpinned, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn kernel_module_is_determinism_pinned() {
        // The quantized DP kernel module must stay inside the determinism
        // perimeter: a wall-clock read (or any nondeterminism) in the
        // branch-free select loops would leak straight into plan bits.
        let src = "pub(crate) fn relax(next: &mut [f64]) { let _t = Instant::now(); }";
        let file = parse("crates/core/src/solver/kernel.rs", src);
        let mut out = Vec::new();
        determinism(&file, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(
            out[0].message.contains("Instant::now"),
            "{}",
            out[0].message
        );
    }

    #[test]
    fn panic_hygiene_flags_only_nontest_service_and_solver_code() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   #[cfg(test)]\nmod tests { fn g(x: Option<u32>) -> u32 { x.expect(\"t\") } }";
        let service = parse("crates/core/src/service/cache.rs", src);
        let mut out = Vec::new();
        panic_hygiene(&service, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 1);
        let elsewhere = parse("crates/core/src/report.rs", src);
        let mut out = Vec::new();
        panic_hygiene(&elsewhere, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn server_and_registry_are_inside_both_perimeters() {
        // PR 8 put the HTTP front end and the on-disk registry inside the
        // panic-hygiene and determinism perimeters: an unwrap on a socket
        // or registry I/O path would turn one bad connection / corrupt
        // file into a dead server, and nondeterminism there would leak
        // into served artifact bytes.
        let panicky = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        for path in [
            "crates/core/src/server/http.rs",
            "crates/core/src/registry/mod.rs",
        ] {
            let file = parse(path, panicky);
            let mut out = Vec::new();
            panic_hygiene(&file, &mut out);
            assert_eq!(out.len(), 1, "{path}: {out:?}");
        }
        let clocky = "fn f() { let _t = Instant::now(); }";
        for path in [
            "crates/core/src/server/mod.rs",
            "crates/core/src/registry/mod.rs",
        ] {
            let file = parse(path, clocky);
            let mut out = Vec::new();
            determinism(&file, &mut out);
            assert_eq!(out.len(), 1, "{path}: {out:?}");
        }
    }

    #[test]
    fn obs_module_is_inside_both_perimeters() {
        // PR 10 put the observability subsystem inside both perimeters:
        // obs/ is precisely where clock reads are tempting, so every one
        // must go through the single waivered monotonic-clock site, and
        // an unwrap in receipt/histogram code would let a telemetry bug
        // take down the serving path it is meant to observe.
        let panicky = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        let file = parse("crates/core/src/obs/mod.rs", panicky);
        let mut out = Vec::new();
        panic_hygiene(&file, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        let clocky = "fn f() { let _t = Instant::now(); }";
        let file = parse("crates/core/src/obs/mod.rs", clocky);
        let mut out = Vec::new();
        determinism(&file, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
    }

    #[test]
    fn planner_is_inside_the_determinism_perimeter() {
        // The reserve-grid search in planner.rs picks the winners the
        // golden plan hashes pin, so clock reads, randomness and
        // hash-order iteration are flagged there like in the solvers.
        let clocky = "fn f() { let _t = Instant::now(); }";
        let hashy = "fn f(seen: HashSet<u64>) { for s in seen {} }";
        for src in [clocky, hashy] {
            let file = parse("crates/core/src/planner.rs", src);
            let mut out = Vec::new();
            determinism(&file, &mut out);
            assert_eq!(out.len(), 1, "{out:?}");
        }
    }

    #[test]
    fn unwrap_or_variants_are_not_flagged() {
        let file = parse(
            "crates/core/src/solver/workspace.rs",
            "fn f(x: Option<u32>) -> u32 { x.unwrap_or_default() }",
        );
        let mut out = Vec::new();
        panic_hygiene(&file, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn allow_attrs_and_stale_markers_are_flagged() {
        let src = format!(
            "#[allow(dead_code)]\nfn f() {{}}\n// {}: fix this later\n",
            concat!("TO", "DO")
        );
        let file = parse("crates/core/src/report.rs", &src);
        let mut out = Vec::new();
        allow_attr(&file, &mut out);
        stale_marker(&file, &mut out);
        assert_eq!(out.len(), 2, "{out:?}");
    }

    #[test]
    fn schema_version_disagreements_are_findings() {
        let json_rs = parse(
            "crates/bench/src/json.rs",
            "pub const BENCH_SUMMARY_SCHEMA_VERSION: u64 = 4;",
        );
        let aux = AuxDocs {
            design_md: Some((
                "DESIGN.md".into(),
                "The summary (schema v4) and the old schema v3 note.".into(),
            )),
            bench_summary: Some((
                "BENCH_SUMMARY.json".into(),
                "{\n  \"schema_version\": 3\n}".into(),
            )),
        };
        let mut out = Vec::new();
        schema_versions(&[json_rs], &aux, &mut out);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().any(|f| f.path == "DESIGN.md"));
        assert!(out.iter().any(|f| f.path == "BENCH_SUMMARY.json"));
    }

    #[test]
    fn dead_enum_variants_are_reported() {
        let error_rs = parse(
            "crates/core/src/error.rs",
            "pub enum ServiceError { QueueFull { capacity: usize }, NotServing }\n\
             impl fmt::Display for ServiceError { fn fmt(&self) { match self {\n\
                 ServiceError::QueueFull { .. } => {}, ServiceError::NotServing => {} } } }",
        );
        let user = parse(
            "crates/core/src/service/front.rs",
            "fn f() -> ServiceError { ServiceError::NotServing }",
        );
        let mut out = Vec::new();
        dead_variants(&[error_rs, user], &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("QueueFull"));
    }

    #[test]
    fn test_spans_cover_stacked_attributes() {
        let file = parse(
            "crates/core/src/report.rs",
            "fn live() {}\n#[cfg(test)]\n#[derive(Debug)]\nstruct T { x: u32 }\nfn also_live() {}",
        );
        let test_idents: Vec<&str> = file
            .toks
            .iter()
            .filter(|t| t.test && t.kind == TokenKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert!(test_idents.contains(&"T"));
        assert!(!test_idents.contains(&"live"));
        assert!(!test_idents.contains(&"also_live"));
    }
}
