//! `memento-analyzer` — token-stream static analysis for the Memento
//! workspace.
//!
//! The determinism story of this repo used to rest on a per-line regex
//! scanner (`tools/lint`); ahead of the concurrency work (true multicore
//! machines, a lock-free page pool — ROADMAP items 2 and 3) it grew into
//! a real analyzer:
//!
//! - a dependency-free lexer ([`lexer`]) that understands line *and
//!   block* comments, every string/char literal form, and raw strings,
//!   so a banned pattern quoted in a message or a comment can never
//!   false-positive and quote parity can never break;
//! - a pass framework with per-rule severity ([`Severity`]), file
//!   classification ([`FileProfile`]: sim-lib / tool-lib / hot-path /
//!   test / sanctioned), and two output modes — human text and a stable
//!   JSON report (`lint-findings.json`) for CI artifact upload;
//! - a cross-file **waiver ledger**: every waiver must carry a
//!   `: justification` suffix or it suppresses nothing, and a waiver
//!   that no longer suppresses anything is itself reported
//!   (`unused-waiver`), so suppressions cannot rot.
//!
//! The seven rules of the old per-line scanner run on the token engine,
//! and five concurrency-readiness passes join them; the per-rule fixtures
//! (`tests/fixtures.rs`) pin every rule's verdicts. See [`Rule`] for the
//! full table and DESIGN.md §11 for the architecture.
//!
//! # Waivers
//!
//! A finding is waived by a comment on the same line or the line above
//! of the form `lint:allow(<rule>): <justification>`. The rule id must
//! name a known rule, the justification must be non-empty, and the
//! waiver must actually suppress something — otherwise the ledger
//! reports it.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub mod lexer;

use lexer::{Lexed, TokenKind};

/// Finding severity. `Deny` findings always fail the scan; `Warn`
/// findings fail it only under `--deny-warnings` (CI runs that mode, so
/// the checked-in tree must be clean of both).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// Advisory: reported, fails only under `--deny-warnings`.
    Warn,
    /// Hard error: always fails the scan.
    Deny,
}

impl Severity {
    /// Lowercase label used in both output modes.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }
}

/// The analyzer's rules: the seven ported determinism/hygiene rules, the
/// five concurrency-readiness passes, and the two waiver-ledger rules.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Wall-clock reads in sim code outside the sanctioned timing files.
    WallClock,
    /// Thread spawning outside the order-preserving pool and the runner.
    ThreadSpawn,
    /// Iterating a `HashMap`/`HashSet` declared in the same file.
    UnorderedIter,
    /// `.unwrap()` in library (non-test) code.
    UnwrapInLib,
    /// `#[ignore]` without a reason string.
    IgnoreWithoutReason,
    /// Any `#[ignore …]` inside the experiments crate.
    IgnoreInExperiments,
    /// `BTreeMap` in the cluster engine's flattened hot-path files.
    BTreeMapInHotPath,
    /// `unsafe` block/fn/impl without an adjacent `SAFETY:` comment.
    UnsafeWithoutSafetyComment,
    /// Suspicious atomic orderings: relaxed store/CAS, hot-path SeqCst.
    AtomicOrderingAudit,
    /// `panic!`/`todo!`/`unimplemented!`/`unreachable!` in library code.
    PanicInLib,
    /// Possibly-truncating `as` cast in the cluster hot-path files.
    NarrowingCastInHotPath,
    /// f64 reduction over shard results outside sanctioned merge sites.
    FloatAccumulationOrder,
    /// A waiver naming an unknown rule or missing its justification.
    UnjustifiedWaiver,
    /// A well-formed waiver that suppresses nothing.
    UnusedWaiver,
}

impl Rule {
    /// Stable identifier: the waiver token and the JSON `rule` field.
    pub fn id(self) -> &'static str {
        match self {
            Rule::WallClock => "wall-clock",
            Rule::ThreadSpawn => "thread-spawn",
            Rule::UnorderedIter => "unordered-iter",
            Rule::UnwrapInLib => "unwrap-in-lib",
            Rule::IgnoreWithoutReason => "ignore-without-reason",
            Rule::IgnoreInExperiments => "ignore-in-experiments",
            Rule::BTreeMapInHotPath => "btreemap-in-hot-path",
            Rule::UnsafeWithoutSafetyComment => "unsafe-without-safety-comment",
            Rule::AtomicOrderingAudit => "atomic-ordering-audit",
            Rule::PanicInLib => "panic-in-lib",
            Rule::NarrowingCastInHotPath => "narrowing-cast-in-hot-path",
            Rule::FloatAccumulationOrder => "float-accumulation-order",
            Rule::UnjustifiedWaiver => "unjustified-waiver",
            Rule::UnusedWaiver => "unused-waiver",
        }
    }

    /// Severity class (see [`Severity`]).
    pub fn severity(self) -> Severity {
        match self {
            Rule::WallClock
            | Rule::ThreadSpawn
            | Rule::UnorderedIter
            | Rule::UnwrapInLib
            | Rule::IgnoreWithoutReason
            | Rule::IgnoreInExperiments
            | Rule::BTreeMapInHotPath
            | Rule::UnsafeWithoutSafetyComment
            | Rule::UnjustifiedWaiver => Severity::Deny,
            Rule::AtomicOrderingAudit
            | Rule::PanicInLib
            | Rule::NarrowingCastInHotPath
            | Rule::FloatAccumulationOrder
            | Rule::UnusedWaiver => Severity::Warn,
        }
    }

    /// What the rule protects.
    pub fn explanation(self) -> &'static str {
        match self {
            Rule::WallClock => {
                "wall-clock reads make sim results vary run to run; keep timing in the \
                 experiments runner and report it outside result tables"
            }
            Rule::ThreadSpawn => {
                "ad-hoc threads break the order-preserving parallelism contract; use \
                 memento_simcore::pool::map_ordered"
            }
            Rule::UnorderedIter => {
                "HashMap/HashSet iteration order is randomized per instance; iterate a \
                 BTree container or waive with a justification if the reduction is \
                 order-insensitive"
            }
            Rule::UnwrapInLib => {
                "library code must not panic without context; use expect(\"why\") or \
                 propagate a Result"
            }
            Rule::IgnoreWithoutReason => "every #[ignore] must say why: #[ignore = \"reason\"]",
            Rule::IgnoreInExperiments => {
                "experiments tests guard the paper figures; an ignored one lets a figure \
                 regress silently, so disabling it takes an explicit \
                 lint:allow(ignore-in-experiments) waiver"
            }
            Rule::BTreeMapInHotPath => {
                "the cluster event engine is flat arrays and an index heap by design \
                 (DESIGN.md); a BTreeMap on the per-event path silently undoes the \
                 flattening the perf gate measures — use a Vec/slab, or waive with a \
                 drain-time-only justification"
            }
            Rule::UnsafeWithoutSafetyComment => {
                "every unsafe block, fn, or impl needs an adjacent `// SAFETY:` comment \
                 (or a `# Safety` doc section) stating the invariant that makes it sound"
            }
            Rule::AtomicOrderingAudit => {
                "Ordering::Relaxed on a store or CAS publishes nothing — waive with why \
                 no data is released, or use Release/AcqRel; SeqCst on the cluster hot \
                 path is a full fence per event — justify it or use Acquire/Release"
            }
            Rule::PanicInLib => {
                "library code must not panic!/todo!/unimplemented!/unreachable!; return \
                 an error, or waive with the invariant that makes the site unreachable"
            }
            Rule::NarrowingCastInHotPath => {
                "`as` to a narrower integer silently truncates; in the packed-key hot \
                 paths use try_from + expect, or waive with the bound that makes the \
                 cast lossless"
            }
            Rule::FloatAccumulationOrder => {
                "f64 addition is not associative, so shard-result reductions belong in \
                 the sanctioned merge site (experiments runner.rs); \
                 elsewhere, waive with why the fold order is fixed and deterministic"
            }
            Rule::UnjustifiedWaiver => {
                "a waiver must name a known rule and carry a non-empty `: justification` \
                 suffix; without one it suppresses nothing"
            }
            Rule::UnusedWaiver => {
                "this waiver suppresses no finding; remove it (or fix the drifted line) \
                 so the suppression ledger cannot rot"
            }
        }
    }

    /// Every rule, in stable report order.
    pub fn all() -> [Rule; 14] {
        [
            Rule::WallClock,
            Rule::ThreadSpawn,
            Rule::UnorderedIter,
            Rule::UnwrapInLib,
            Rule::IgnoreWithoutReason,
            Rule::IgnoreInExperiments,
            Rule::BTreeMapInHotPath,
            Rule::UnsafeWithoutSafetyComment,
            Rule::AtomicOrderingAudit,
            Rule::PanicInLib,
            Rule::NarrowingCastInHotPath,
            Rule::FloatAccumulationOrder,
            Rule::UnjustifiedWaiver,
            Rule::UnusedWaiver,
        ]
    }

    fn from_id(id: &str) -> Option<Rule> {
        Rule::all().into_iter().find(|r| r.id() == id)
    }
}

/// One analyzer hit.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Repo-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule violated.
    pub rule: Rule,
    /// The offending line, trimmed.
    pub excerpt: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}[{}] {}",
            self.file,
            self.line,
            self.rule.severity().label(),
            self.rule.id(),
            self.excerpt
        )
    }
}

/// One entry in the waiver ledger.
#[derive(Clone, Debug)]
pub struct Waiver {
    /// Repo-relative path.
    pub file: String,
    /// 1-based line the waiver comment is on.
    pub line: usize,
    /// Rule the waiver names.
    pub rule: Rule,
    /// The justification text after the colon.
    pub justification: String,
    /// Whether the waiver suppressed at least one finding (or, for a
    /// dead waiver, was acknowledged by an `unused-waiver` cover).
    pub used: bool,
}

/// How a file is classified; decides which passes run on it.
#[derive(Clone, Copy, Debug, Default)]
pub struct FileProfile {
    /// Test code: test trees, examples, benches, `*test*` file names.
    pub test: bool,
    /// Simulator library code (`crates/*/src/**`, non-test).
    pub sim_lib: bool,
    /// Analyzer/tooling library code (`tools/*/src/**`, non-test).
    pub tool_lib: bool,
    /// Sanctioned to read the wall clock.
    pub timed: bool,
    /// Sanctioned to spawn threads.
    pub threaded: bool,
    /// Flattened per-event hot path (BTreeMap, SeqCst and narrowing-cast
    /// checks).
    pub hot_flat: bool,
    /// Sanctioned shard-result merge site (float reductions allowed).
    pub merge_site: bool,
    /// Inside `crates/experiments/` (ignore-hygiene escalation).
    pub experiments: bool,
}

/// The experiments-facing front of the worker pool: allowed to time
/// shard sweeps and (historically) to spawn threads.
const RUNNER: &str = "crates/experiments/src/runner.rs";

/// Files sanctioned to read the wall clock (`crates/obs/src/selfprof.rs`
/// is deliberately not listed — its clock reads carry per-site waivers
/// so any new one still needs a justification).
const TIMED_FILES: [&str; 1] = [RUNNER];

/// Files allowed to spawn threads.
const THREADED_FILES: [&str; 2] = [RUNNER, "crates/simcore/src/pool.rs"];

/// Per-event hot-path files (the packed-u64 argmin engine and its event
/// heap): `BTreeMap` and gratuitous `SeqCst` banned, and a truncating
/// `as` cast needs a bound.
const HOT_FLAT_FILES: [&str; 2] = [
    "crates/cluster/src/sim.rs",
    "crates/cluster/src/event_heap.rs",
];

/// Sanctioned shard-result merge sites: the only places f64 reductions
/// over parallel results may live un-waived.
const MERGE_SITES: [&str; 1] = [RUNNER];

/// Classifies a repo-relative (`/`-separated) path.
pub fn classify(rel: &str) -> FileProfile {
    let file_name = rel.rsplit('/').next().unwrap_or(rel);
    let test = rel.contains("/tests/")
        || rel.starts_with("tests/")
        || rel.starts_with("examples/")
        || rel.starts_with("benches/")
        || file_name.contains("test");
    FileProfile {
        test,
        sim_lib: rel.starts_with("crates/") && rel.contains("/src/") && !test,
        tool_lib: rel.starts_with("tools/") && rel.contains("/src/") && !test,
        timed: TIMED_FILES.contains(&rel),
        threaded: THREADED_FILES.contains(&rel),
        hot_flat: HOT_FLAT_FILES.contains(&rel),
        merge_site: MERGE_SITES.contains(&rel),
        experiments: rel.starts_with("crates/experiments/"),
    }
}

/// Result of scanning one file: surviving findings plus the full waiver
/// ledger (used and unused) for the report.
#[derive(Debug, Default)]
pub struct FileScan {
    /// Findings that no waiver suppressed, sorted by (line, rule).
    pub findings: Vec<Finding>,
    /// Every well-formed waiver in the file, with its `used` bit set.
    pub waivers: Vec<Waiver>,
}

/// Marks lines inside `#[cfg(test)]` regions (brace-balanced from the
/// attribute), on the lexer's code view so attributes quoted in comments
/// or strings can't open a region.
fn test_regions(code: &[String]) -> Vec<bool> {
    let mut in_test = vec![false; code.len()];
    let mut active = false;
    let mut depth: i64 = 0;
    let mut seen_open = false;
    for (i, line) in code.iter().enumerate() {
        if !active && line.contains("#[cfg(test)]") {
            active = true;
            depth = 0;
            seen_open = false;
        }
        if active {
            in_test[i] = true;
            for ch in line.chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        seen_open = true;
                    }
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            let body_closed = seen_open && depth <= 0;
            let out_of_line_mod =
                !seen_open && line.trim_end().ends_with(';') && line.contains("mod ");
            if body_closed || out_of_line_mod {
                active = false;
            }
        }
    }
    in_test
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// If the `HashMap`/`HashSet` occurrence at `idx` is a binding's type or
/// initializer (`name: HashMap<..>` / `name = HashMap::new()`), returns
/// the bound name. Rejects paths (`::HashMap`), imports, and return
/// types.
fn binder_before(code: &str, idx: usize) -> Option<String> {
    let before = code[..idx].trim_end();
    let tail = if let Some(t) = before.strip_suffix(':') {
        if t.ends_with(':') {
            return None; // `::HashMap` — a path, not a binding type.
        }
        t
    } else if let Some(t) = before.strip_suffix('=') {
        // Reject `==`, `=>`, `+=`, `<=`, … — only plain assignment binds.
        if t.ends_with(['=', '<', '>', '+', '-', '!', '&', '|', '*', '/']) {
            return None;
        }
        t
    } else {
        return None;
    };
    let t = tail.trim_end();
    let name: String = t
        .chars()
        .rev()
        .take_while(|c| is_ident_char(*c))
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect();
    (!name.is_empty() && !name.chars().next().is_some_and(|c| c.is_ascii_digit())).then_some(name)
}

/// Collects names bound to `HashMap`/`HashSet` in non-test code lines.
fn unordered_names(code: &[String], in_test: &[bool]) -> Vec<String> {
    let mut names = Vec::new();
    for (i, line) in code.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        for ty in ["HashMap", "HashSet"] {
            let mut from = 0;
            while let Some(pos) = line[from..].find(ty) {
                let idx = from + pos;
                if let Some(name) = binder_before(line, idx) {
                    if !names.contains(&name) {
                        names.push(name);
                    }
                }
                from = idx + ty.len();
            }
        }
    }
    names
}

/// Whether the char before byte `idx` ends an identifier (so a match at
/// `idx` would not start on a word boundary).
fn boundary_before(line: &str, idx: usize) -> bool {
    idx == 0 || !line[..idx].chars().next_back().is_some_and(is_ident_char)
}

/// Whether `code` iterates `name` (method calls or a `for … in`).
fn iterates(code: &str, name: &str) -> bool {
    const SUFFIXES: [&str; 7] = [
        ".iter()",
        ".iter_mut()",
        ".keys()",
        ".values()",
        ".values_mut()",
        ".into_iter()",
        ".drain(",
    ];
    for suffix in SUFFIXES {
        let pat = format!("{name}{suffix}");
        let mut from = 0;
        while let Some(pos) = code[from..].find(&pat) {
            let idx = from + pos;
            if boundary_before(code, idx) {
                return true;
            }
            from = idx + pat.len();
        }
    }
    for prefix in ["in ", "in &", "in &mut "] {
        let pat = format!("{prefix}{name}");
        let mut from = 0;
        while let Some(pos) = code[from..].find(&pat) {
            let idx = from + pos;
            let after = code[idx + pat.len()..].chars().next();
            let post_ok = matches!(after, None | Some(' ') | Some('{'));
            if boundary_before(code, idx) && post_ok {
                return true;
            }
            from = idx + pat.len();
        }
    }
    false
}

/// Finds `pat` in `line` respecting a leading identifier boundary.
fn find_word(line: &str, pat: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = line[from..].find(pat) {
        let idx = from + pos;
        if boundary_before(line, idx) {
            return true;
        }
        from = idx + pat.len();
    }
    false
}

/// Whether the contiguous comment/attribute block at or above
/// `line_idx` carries a `SAFETY:` rationale (or a `# Safety` doc
/// section). A blank line or a non-attribute code line breaks the block.
fn has_safety_comment(lx: &Lexed, line_idx: usize) -> bool {
    if lx.comments[line_idx].contains("SAFETY:") {
        return true;
    }
    let mut j = line_idx;
    while j > 0 {
        j -= 1;
        let com = lx.comments[j].trim();
        let cod = lx.code[j].trim();
        if com.contains("SAFETY:") || com.contains("# Safety") {
            return true;
        }
        let attr_only = cod.starts_with("#[") || cod == "]";
        if cod.is_empty() && com.is_empty() {
            return false; // blank line breaks contiguity
        }
        if !cod.is_empty() && !attr_only {
            return false; // a real code line breaks the block
        }
    }
    false
}

/// Atomic ops whose `Ordering::Relaxed` argument is suspicious: writes
/// and read-modify-writes (plain loads stay un-flagged).
const ATOMIC_WRITE_OPS: [&str; 12] = [
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_update",
    "fetch_min",
    "fetch_max",
];

/// Narrow integer (and f32) cast targets that can truncate.
const NARROW_TARGETS: [&str; 7] = ["u8", "u16", "u32", "i8", "i16", "i32", "f32"];

/// A raw (pre-waiver) finding: 0-based line + rule.
struct Hit {
    line: usize,
    rule: Rule,
}

/// Token-stream passes: `unsafe` / atomic-ordering / narrowing-cast
/// detection works across line breaks because it walks tokens, not
/// lines.
fn token_passes(lx: &Lexed, profile: &FileProfile, in_test: &[bool], hits: &mut Vec<Hit>) {
    if !(profile.sim_lib || profile.tool_lib) {
        return;
    }
    // Only code tokens participate, so the windows below can't straddle
    // a comment or a literal.
    let code_tokens: Vec<&lexer::Token> = lx
        .tokens
        .iter()
        .filter(|t| {
            matches!(
                t.kind,
                TokenKind::Ident | TokenKind::Number | TokenKind::Punct | TokenKind::Lifetime
            )
        })
        .collect();
    for (i, t) in code_tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || in_test[t.line] {
            continue;
        }
        match t.text.as_str() {
            "unsafe" if !has_safety_comment(lx, t.line) => {
                hits.push(Hit {
                    line: t.line,
                    rule: Rule::UnsafeWithoutSafetyComment,
                });
            }
            "Ordering" => {
                // `Ordering :: <variant>` — the lexer emits `::` as two
                // Punct tokens.
                let variant = match (code_tokens.get(i + 1), code_tokens.get(i + 2)) {
                    (Some(a), Some(b)) if a.text == ":" && b.text == ":" => code_tokens.get(i + 3),
                    _ => None,
                };
                let Some(v) = variant else { continue };
                if v.kind != TokenKind::Ident {
                    continue;
                }
                if v.text == "Relaxed" {
                    // Scan back over this statement for a write/RMW op.
                    let suspicious = code_tokens[..i]
                        .iter()
                        .rev()
                        .take_while(|b| !matches!(b.text.as_str(), ";" | "{" | "}"))
                        .take(40)
                        .any(|b| {
                            b.kind == TokenKind::Ident
                                && ATOMIC_WRITE_OPS.contains(&b.text.as_str())
                        });
                    if suspicious {
                        hits.push(Hit {
                            line: v.line,
                            rule: Rule::AtomicOrderingAudit,
                        });
                    }
                } else if v.text == "SeqCst" && profile.hot_flat {
                    hits.push(Hit {
                        line: v.line,
                        rule: Rule::AtomicOrderingAudit,
                    });
                }
            }
            "as" if profile.hot_flat => {
                if let Some(target) = code_tokens.get(i + 1) {
                    if target.kind == TokenKind::Ident
                        && NARROW_TARGETS.contains(&target.text.as_str())
                    {
                        hits.push(Hit {
                            line: t.line,
                            rule: Rule::NarrowingCastInHotPath,
                        });
                    }
                }
            }
            _ => {}
        }
    }
}

/// Line-pattern passes over the code view: the seven per-line rules plus
/// `panic-in-lib` and `float-accumulation-order`.
fn line_passes(lx: &Lexed, profile: &FileProfile, in_test: &[bool], hits: &mut Vec<Hit>) {
    let lib = profile.sim_lib || profile.tool_lib;
    let names = if lib {
        unordered_names(&lx.code, in_test)
    } else {
        Vec::new()
    };
    // The float pass applies only to files that consume parallel shard
    // results (they call `map_ordered`, or the evaluation context's
    // `ctx.map` front of it) and are not a sanctioned merge site.
    let consumes_shards = lx
        .code
        .iter()
        .any(|l| l.contains("map_ordered(") || l.contains("ctx.map("));
    let float_scope = profile.sim_lib && consumes_shards && !profile.merge_site;

    for (i, code) in lx.code.iter().enumerate() {
        // #[ignore] hygiene applies everywhere, including test code.
        if code.contains("#[ignore]") {
            hits.push(Hit {
                line: i,
                rule: Rule::IgnoreWithoutReason,
            });
        }
        if profile.experiments && code.contains("#[ignore") {
            hits.push(Hit {
                line: i,
                rule: Rule::IgnoreInExperiments,
            });
        }
        if in_test[i] {
            continue;
        }
        if profile.sim_lib {
            if !profile.timed && (code.contains("Instant::now") || code.contains("SystemTime")) {
                hits.push(Hit {
                    line: i,
                    rule: Rule::WallClock,
                });
            }
            if !profile.threaded
                && (code.contains("thread::spawn") || code.contains("thread::scope"))
            {
                hits.push(Hit {
                    line: i,
                    rule: Rule::ThreadSpawn,
                });
            }
            if profile.hot_flat && code.contains("BTreeMap") {
                hits.push(Hit {
                    line: i,
                    rule: Rule::BTreeMapInHotPath,
                });
            }
        }
        if lib {
            if code.contains(".unwrap()") {
                hits.push(Hit {
                    line: i,
                    rule: Rule::UnwrapInLib,
                });
            }
            for mac in ["panic!(", "todo!(", "unimplemented!(", "unreachable!("] {
                if find_word(code, mac) {
                    hits.push(Hit {
                        line: i,
                        rule: Rule::PanicInLib,
                    });
                    break;
                }
            }
            for name in &names {
                if iterates(code, name) {
                    hits.push(Hit {
                        line: i,
                        rule: Rule::UnorderedIter,
                    });
                    break;
                }
            }
        }
        if float_scope
            && (code.contains("sum::<f64>")
                || code.contains("product::<f64>")
                || code.contains(".fold(0.0")
                || (code.contains(".sum()") && code.contains(": f64")))
        {
            hits.push(Hit {
                line: i,
                rule: Rule::FloatAccumulationOrder,
            });
        }
    }
}

/// Parses the waiver ledger out of the comment view. Well-formed waivers
/// land in `waivers`; malformed ones (unknown rule, missing or empty
/// justification) become `unjustified-waiver` hits.
fn parse_waivers(rel: &str, lx: &Lexed, waivers: &mut Vec<Waiver>, hits: &mut Vec<Hit>) {
    const TOKEN: &str = "lint:allow(";
    for (i, com) in lx.comments.iter().enumerate() {
        let mut from = 0;
        while let Some(pos) = com[from..].find(TOKEN) {
            let start = from + pos + TOKEN.len();
            from = start;
            let id: String = com[start..]
                .chars()
                .take_while(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || *c == '-')
                .collect();
            if id.is_empty() || !com[start + id.len()..].starts_with(')') {
                // Not a waiver attempt (e.g. a `<rule>` placeholder in
                // prose): ignore.
                continue;
            }
            let rest = &com[start + id.len() + 1..];
            let Some(rule) = Rule::from_id(&id) else {
                hits.push(Hit {
                    line: i,
                    rule: Rule::UnjustifiedWaiver,
                });
                continue;
            };
            let justification = rest
                .strip_prefix(':')
                .map(|j| j.trim().trim_end_matches("*/").trim().to_string())
                .unwrap_or_default();
            if justification.is_empty() {
                hits.push(Hit {
                    line: i,
                    rule: Rule::UnjustifiedWaiver,
                });
                continue;
            }
            waivers.push(Waiver {
                file: rel.to_string(),
                line: i + 1,
                rule,
                justification,
                used: false,
            });
        }
    }
}

/// Scans one file end to end: lex, classify, run every pass, apply the
/// waiver ledger, and report unused waivers.
pub fn scan_file(rel: &str, source: &str) -> FileScan {
    let lx = lexer::lex(source);
    let profile = classify(rel);
    let in_test = test_regions(&lx.code);
    let raw_lines: Vec<&str> = source.lines().collect();

    let mut hits = Vec::new();
    let mut waivers = Vec::new();
    parse_waivers(rel, &lx, &mut waivers, &mut hits);
    line_passes(&lx, &profile, &in_test, &mut hits);
    token_passes(&lx, &profile, &in_test, &mut hits);

    // A justified waiver for the named rule covers findings on its own
    // line and the line directly below.
    hits.retain(|h| {
        let mut covered = false;
        for w in waivers.iter_mut() {
            if w.rule == h.rule && (w.line == h.line + 1 || w.line == h.line) {
                w.used = true;
                covered = true;
            }
        }
        !covered
    });

    // Unused-waiver pass, phase A: every dead waiver for an ordinary
    // rule is reported unless an `unused-waiver` waiver covers it; an
    // acknowledged dead waiver and its cover both count as used, so the
    // "every waiver is used" ledger invariant holds whenever the scan is
    // clean.
    let mut unused_hits = Vec::new();
    for k in 0..waivers.len() {
        if waivers[k].used || waivers[k].rule == Rule::UnusedWaiver {
            continue;
        }
        let line = waivers[k].line;
        let covered = waivers.iter_mut().any(|w| {
            let hit = w.rule == Rule::UnusedWaiver && (w.line == line || w.line + 1 == line);
            if hit {
                w.used = true;
            }
            hit
        });
        if covered {
            waivers[k].used = true;
        } else {
            unused_hits.push(Hit {
                line: line - 1,
                rule: Rule::UnusedWaiver,
            });
        }
    }
    // Phase B: dead `unused-waiver` waivers themselves.
    for w in &waivers {
        if !w.used && w.rule == Rule::UnusedWaiver {
            unused_hits.push(Hit {
                line: w.line - 1,
                rule: Rule::UnusedWaiver,
            });
        }
    }
    hits.extend(unused_hits);

    let mut findings: Vec<Finding> = hits
        .into_iter()
        .map(|h| Finding {
            file: rel.to_string(),
            line: h.line + 1,
            rule: h.rule,
            excerpt: raw_lines.get(h.line).map_or("", |l| l.trim()).to_string(),
        })
        .collect();
    findings.sort_by_key(|a| (a.line, a.rule));
    FileScan { findings, waivers }
}

/// Convenience wrapper returning only the surviving findings.
pub fn scan_source(rel: &str, source: &str) -> Vec<Finding> {
    scan_file(rel, source).findings
}

/// Walks a directory tree collecting `.rs` files in sorted order,
/// skipping `fixtures/` (analyzer test data trips rules on purpose) and
/// `target/`.
pub fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name == "fixtures" || name == "target" {
                continue;
            }
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// A whole-repo scan: every surviving finding plus the aggregated waiver
/// ledger, both in stable order.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings across all scanned files, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Every waiver across all scanned files, sorted by (file, line).
    pub waivers: Vec<Waiver>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Deny-severity findings.
    pub fn deny_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.rule.severity() == Severity::Deny)
            .count()
    }

    /// Warn-severity findings.
    pub fn warn_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.rule.severity() == Severity::Warn)
            .count()
    }
}

/// Scans the whole repository rooted at `root`: sim crate sources, the
/// top-level `tests/`, `examples/`, and `benches/` trees, and `tools/`
/// (the analyzer scans itself; only its `fixtures/` are out of scope,
/// along with the vendored dependency stubs under `vendor/`).
pub fn scan_repo(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    for top in ["crates", "tests", "examples", "benches", "tools"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    let mut report = Report::default();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let source = fs::read_to_string(path)?;
        let scan = scan_file(&rel, &source);
        report.findings.extend(scan.findings);
        report.waivers.extend(scan.waivers);
    }
    report.files_scanned = files.len();
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report
        .waivers
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(report)
}

fn json_escape(s: &str) -> String {
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

/// Renders the stable machine-readable report (`lint-findings.json`).
/// Schema (documented in DESIGN.md §11): fixed key order, findings
/// sorted by (file, line, rule), waivers by (file, line).
pub fn to_json(report: &Report, deny_warnings: bool) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"schema\": \"memento-analyzer/1\",\n");
    s.push_str(&format!(
        "  \"mode\": {{\"deny_warnings\": {deny_warnings}}},\n"
    ));
    s.push_str("  \"rules\": [\n");
    let rules = Rule::all();
    for (i, r) in rules.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"id\": \"{}\", \"severity\": \"{}\", \"summary\": \"{}\"}}{}\n",
            r.id(),
            r.severity().label(),
            json_escape(r.explanation()),
            if i + 1 < rules.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"findings\": [\n");
    for (i, f) in report.findings.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"severity\": \"{}\", \
             \"excerpt\": \"{}\"}}{}\n",
            json_escape(&f.file),
            f.line,
            f.rule.id(),
            f.rule.severity().label(),
            json_escape(&f.excerpt),
            if i + 1 < report.findings.len() {
                ","
            } else {
                ""
            }
        ));
    }
    s.push_str("  ],\n  \"waivers\": [\n");
    for (i, w) in report.waivers.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"justification\": \
             \"{}\", \"used\": {}}}{}\n",
            json_escape(&w.file),
            w.line,
            w.rule.id(),
            json_escape(&w.justification),
            w.used,
            if i + 1 < report.waivers.len() {
                ","
            } else {
                ""
            }
        ));
    }
    s.push_str(&format!(
        "  ],\n  \"counts\": {{\"deny\": {}, \"warn\": {}, \"waivers\": {}, \"files_scanned\": \
         {}}}\n}}\n",
        report.deny_count(),
        report.warn_count(),
        report.waivers.len(),
        report.files_scanned
    ));
    s
}

/// Human summary line for a scan.
pub fn summary(report: &Report) -> String {
    if report.findings.is_empty() {
        format!(
            "analyzer: clean ({} rules over {} files, {} waivers all used)",
            Rule::all().len(),
            report.files_scanned,
            report.waivers.len()
        )
    } else {
        format!(
            "analyzer: {} finding(s) ({} deny, {} warn)",
            report.findings.len(),
            report.deny_count(),
            report.warn_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_hit(rel: &str, src: &str) -> Vec<Rule> {
        scan_source(rel, src).into_iter().map(|f| f.rule).collect()
    }

    const LIB: &str = "crates/system/src/machine.rs";

    #[test]
    fn block_comments_do_not_false_positive() {
        // A per-line scanner's blind spot: banned patterns inside block
        // comments trip it, and an odd quote inside one breaks parity for
        // the rest of the line.
        let src = "/* Instant::now BTreeMap x.unwrap() */ fn f() {}\n\
                   /* \" */ fn g() { let s = \"ok\"; let _ = s; }\n\
                   /* multi\nline x.unwrap()\nstill comment */ fn h() {}\n";
        assert!(rules_hit(LIB, src).is_empty(), "{:?}", rules_hit(LIB, src));
    }

    #[test]
    fn code_after_block_comment_is_still_scanned() {
        let src = "/* harmless */ fn f() { x.unwrap(); }\n";
        assert_eq!(rules_hit(LIB, src), vec![Rule::UnwrapInLib]);
    }

    #[test]
    fn multiline_strings_do_not_false_positive() {
        let src = "const T: &str = \"first\nInstant::now() x.unwrap()\nlast\";\n";
        assert!(rules_hit(LIB, src).is_empty());
    }

    #[test]
    fn waiver_requires_justification_to_suppress() {
        let bare = "fn f() { x.unwrap(); } // lint:allow(unwrap-in-lib)\n";
        let hits = rules_hit(LIB, bare);
        assert!(hits.contains(&Rule::UnwrapInLib), "{hits:?}");
        assert!(hits.contains(&Rule::UnjustifiedWaiver), "{hits:?}");
        let just = "fn f() { x.unwrap(); } // lint:allow(unwrap-in-lib): fixture\n";
        assert!(rules_hit(LIB, just).is_empty());
    }

    #[test]
    fn waiver_is_scoped_to_the_named_rule() {
        // One waiver on the previous line must not blanket-suppress a
        // different rule on the next line.
        let src = "// lint:allow(wall-clock): timing fixture\n\
                   fn f() { x.unwrap(); let _ = Instant::now(); }\n";
        let hits = rules_hit(LIB, src);
        assert!(hits.contains(&Rule::UnwrapInLib), "{hits:?}");
        assert!(!hits.contains(&Rule::WallClock), "{hits:?}");
    }

    #[test]
    fn unknown_rule_waiver_is_flagged() {
        let src = "// lint:allow(no-such-rule): whatever\nfn f() {}\n";
        assert_eq!(rules_hit(LIB, src), vec![Rule::UnjustifiedWaiver]);
    }

    #[test]
    fn unused_waiver_is_reported_and_waivable() {
        let dead = "// lint:allow(unwrap-in-lib): nothing below unwraps\nfn f() {}\n";
        assert_eq!(rules_hit(LIB, dead), vec![Rule::UnusedWaiver]);
        let kept = "// lint:allow(unused-waiver): kept while the flag is off\n\
                    // lint:allow(unwrap-in-lib): guarded call returns soon\nfn f() {}\n";
        assert!(rules_hit(LIB, kept).is_empty());
        let scan = scan_file(LIB, kept);
        assert!(scan
            .waivers
            .iter()
            .all(|w| w.rule != Rule::UnusedWaiver || w.used));
    }

    #[test]
    fn used_waivers_are_marked_in_the_ledger() {
        let src = "fn f() { x.unwrap(); } // lint:allow(unwrap-in-lib): fixture\n";
        let scan = scan_file(LIB, src);
        assert!(scan.findings.is_empty());
        assert_eq!(scan.waivers.len(), 1);
        assert!(scan.waivers[0].used);
        assert_eq!(scan.waivers[0].justification, "fixture");
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        let bare = "fn f() { unsafe { g(); } }\n";
        assert_eq!(rules_hit(LIB, bare), vec![Rule::UnsafeWithoutSafetyComment]);
        let ok = "// SAFETY: g is sound because the buffer outlives the call.\n\
                  fn f() { unsafe { g(); } }\n";
        assert!(rules_hit(LIB, ok).is_empty());
        let same_line = "fn f() { unsafe { g(); } } // SAFETY: bounded above.\n";
        assert!(rules_hit(LIB, same_line).is_empty());
        // An attribute between the comment and the item does not break
        // the block.
        let attr = "// SAFETY: caller upholds the aliasing contract.\n\
                    #[inline]\nunsafe fn g() {}\n";
        assert!(rules_hit(LIB, attr).is_empty());
        // `unsafe_code` (the forbid attribute) must not trip the pass.
        let forbid = "#![forbid(unsafe_code)]\nfn f() {}\n";
        assert!(rules_hit(LIB, forbid).is_empty());
    }

    #[test]
    fn relaxed_store_and_cas_are_flagged_but_loads_are_not() {
        let store = "fn f(a: &AtomicBool) { a.store(true, Ordering::Relaxed); }\n";
        assert_eq!(rules_hit(LIB, store), vec![Rule::AtomicOrderingAudit]);
        let cas = "fn f(a: &AtomicU64) {\n    a.compare_exchange(0, 1,\n        \
                   Ordering::Relaxed, Ordering::Relaxed).ok();\n}\n";
        assert_eq!(
            rules_hit(LIB, cas),
            vec![Rule::AtomicOrderingAudit, Rule::AtomicOrderingAudit],
            "multi-line CAS must still be seen"
        );
        let load = "fn f(a: &AtomicBool) -> bool { a.load(Ordering::Relaxed) }\n";
        assert!(rules_hit(LIB, load).is_empty());
        // std::cmp::Ordering variants must not collide with the pass.
        let cmp = "fn f(a: u32, b: u32) -> Ordering { a.cmp(&b) }\n\
                   fn g() -> Ordering { Ordering::Less }\n";
        assert!(rules_hit(LIB, cmp).is_empty());
    }

    #[test]
    fn seqcst_is_flagged_only_on_hot_paths() {
        let src = "fn f(a: &AtomicBool) { a.store(true, Ordering::SeqCst); }\n";
        assert_eq!(
            rules_hit("crates/cluster/src/event_heap.rs", src),
            vec![Rule::AtomicOrderingAudit]
        );
        assert!(rules_hit(LIB, src).is_empty());
    }

    #[test]
    fn panic_macros_are_flagged_in_lib_not_tests() {
        for mac in [
            "panic!(\"x\")",
            "todo!()",
            "unimplemented!()",
            "unreachable!(\"y\")",
        ] {
            let src = format!("fn f() {{ {mac}; }}\n");
            assert_eq!(rules_hit(LIB, &src), vec![Rule::PanicInLib], "{mac}");
        }
        let test = "#[cfg(test)]\nmod tests {\n    fn f() { panic!(\"in test\"); }\n}\n";
        assert!(rules_hit(LIB, test).is_empty());
        let msg = "fn f() { log(\"panic!(\"); }\n";
        assert!(rules_hit(LIB, msg).is_empty(), "quoted macro is not a call");
    }

    #[test]
    fn narrowing_casts_flagged_only_in_hot_files() {
        let src = "fn f(x: usize) -> u32 { x as u32 }\nfn g(x: u64) -> u64 { x as u64 }\n";
        assert_eq!(
            rules_hit("crates/cluster/src/sim.rs", src),
            vec![Rule::NarrowingCastInHotPath]
        );
        assert!(rules_hit(LIB, src).is_empty());
        // Widening and same-width casts stay clean even on hot paths.
        let wide = "fn f(x: u32) -> u64 { x as u64 }\nfn g(x: u32) -> f64 { x as f64 }\n";
        assert!(rules_hit("crates/cluster/src/sim.rs", wide).is_empty());
    }

    #[test]
    fn float_accumulation_scoped_to_shard_consumers() {
        let consumer =
            "fn f(rows: &[f64]) -> f64 {\n    let v = map_ordered(4, rows, |r| *r);\n    \
                        v.iter().sum::<f64>()\n}\n";
        assert_eq!(
            rules_hit("crates/experiments/src/cluster.rs", consumer),
            vec![Rule::FloatAccumulationOrder]
        );
        let via_context = consumer.replace("map_ordered(4, ", "ctx.map(");
        assert_eq!(
            rules_hit("crates/experiments/src/cluster.rs", &via_context),
            vec![Rule::FloatAccumulationOrder]
        );
        // Same reduction in a file that never touches shard results: fine.
        let local = "fn f(rows: &[f64]) -> f64 { rows.iter().sum::<f64>() }\n";
        assert!(rules_hit("crates/experiments/src/cluster.rs", local).is_empty());
        // The sanctioned merge site is exempt.
        assert!(rules_hit(RUNNER, consumer).is_empty());
    }

    #[test]
    fn test_regions_are_skipped() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.unwrap(); }\n}\n";
        assert!(rules_hit("crates/core/src/a.rs", src).is_empty());
        let src2 = format!("{src}fn lib2() {{ y.unwrap(); }}\n");
        assert_eq!(
            rules_hit("crates/core/src/a.rs", &src2),
            vec![Rule::UnwrapInLib]
        );
    }

    #[test]
    fn out_of_line_test_mod_ends_region() {
        let src = "#[cfg(test)]\nmod device_tests;\nfn lib() { x.unwrap(); }\n";
        assert_eq!(
            rules_hit("crates/core/src/a.rs", src),
            vec![Rule::UnwrapInLib]
        );
    }

    #[test]
    fn runner_and_pool_sanctions_still_hold() {
        let clock = "fn f() { let t = Instant::now(); }\n";
        let threads = "fn f() { thread::spawn(|| {}); }\n";
        assert!(rules_hit(RUNNER, &format!("{clock}{threads}")).is_empty());
        assert!(rules_hit("crates/simcore/src/pool.rs", threads).is_empty());
        assert_eq!(
            rules_hit("crates/simcore/src/pool.rs", clock),
            vec![Rule::WallClock]
        );
    }

    #[test]
    fn tools_are_scanned_for_hygiene_but_not_determinism() {
        let src = "fn f() { x.unwrap(); let t = Instant::now(); }\n";
        assert_eq!(
            rules_hit("tools/analyzer/src/lexer.rs", src),
            vec![Rule::UnwrapInLib],
            "tools get hygiene rules but may read the clock"
        );
    }

    #[test]
    fn ignore_hygiene() {
        let bad = "#[ignore]\nfn t() {}\n";
        assert_eq!(
            rules_hit("tests/x.rs", bad),
            vec![Rule::IgnoreWithoutReason]
        );
        let good = "#[ignore = \"slow: full sweep\"]\nfn t() {}\n";
        assert!(rules_hit("tests/x.rs", good).is_empty());
        // Experiments escalation: even a reasoned ignore needs a waiver.
        assert_eq!(
            rules_hit("crates/experiments/src/memusage.rs", good),
            vec![Rule::IgnoreInExperiments]
        );
        let waived = "// lint:allow(ignore-in-experiments): flaky upstream tracked in ROADMAP\n\
                      #[ignore = \"slow\"]\nfn t() {}\n";
        assert!(rules_hit("crates/experiments/src/memusage.rs", waived).is_empty());
    }

    #[test]
    fn json_report_is_stable_and_escaped() {
        let mut report = Report::default();
        report.findings.push(Finding {
            file: "crates/a/src/b.rs".into(),
            line: 3,
            rule: Rule::UnwrapInLib,
            excerpt: "let x = \"q\\\"".into(),
        });
        report.files_scanned = 1;
        let a = to_json(&report, true);
        let b = to_json(&report, true);
        assert_eq!(a, b, "serialization must be deterministic");
        assert!(a.contains("\"schema\": \"memento-analyzer/1\""));
        assert!(
            a.contains("\\\"q\\\\\\\""),
            "quotes and backslashes escaped: {a}"
        );
        assert!(a.contains("\"deny\": 1"));
    }

    #[test]
    fn severity_split_matches_rule_table() {
        assert_eq!(Rule::UnwrapInLib.severity(), Severity::Deny);
        assert_eq!(Rule::PanicInLib.severity(), Severity::Warn);
        assert_eq!(Rule::UnjustifiedWaiver.severity(), Severity::Deny);
        assert_eq!(Rule::UnusedWaiver.severity(), Severity::Warn);
        assert_eq!(Rule::all().len(), 14);
        // Ids are unique.
        let ids: Vec<&str> = Rule::all().iter().map(|r| r.id()).collect();
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len());
    }

    #[test]
    fn repo_is_clean_including_warnings_and_ledger() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let report = scan_repo(&root).expect("repo readable");
        assert!(
            report.findings.is_empty(),
            "repo has analyzer findings:\n{}",
            report
                .findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(
            report.waivers.iter().all(|w| w.used),
            "unused waivers:\n{:?}",
            report
                .waivers
                .iter()
                .filter(|w| !w.used)
                .collect::<Vec<_>>()
        );
        assert!(report.files_scanned > 100, "workspace walk looks truncated");
    }
}
