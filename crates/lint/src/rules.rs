//! The codified repo invariants, as named, testable rules.
//!
//! Each rule pairs a *path scope* (which first-party files the invariant
//! governs) with a *token pattern* (what violates it). Scopes are part of
//! the contract: the no-panic rule owns the serving path, the determinism
//! rule owns pipeline-stage and freeze code, the capped-decode rule owns
//! the hostile-input decoders. Rules skip test-gated regions (tests may
//! `unwrap` and spawn threads) and honor the suppression grammar of
//! [`crate::allow`].

use crate::allow::{parse_allows, Allows};
use crate::diag::Finding;
use crate::lexer::{lex, LexError, Tok, TokKind};
use crate::scope::{find_test_regions, TestRegions};

/// Rule 1: no panicking construct on the serving path.
pub const NO_PANIC: &str = "no-panic-serving-path";
/// Rule 2: concurrency primitives live in `cnp_runtime` only.
pub const RUNTIME_OWNS: &str = "runtime-owns-concurrency";
/// Rule 3: pipeline-stage and freeze code must be deterministic.
pub const DETERMINISM: &str = "determinism-contract";
/// Rule 4: decoder allocations must be clamped by remaining input.
pub const CAPPED_DECODE: &str = "capped-decode";
/// Rule 5: delta segments are consumed only by the overlay write path.
pub const OVERLAY_READ_THROUGH: &str = "overlay-read-through";
/// Meta rule: malformed / stale suppression annotations.
pub const BAD_ANNOTATION: &str = "bad-annotation";
/// Meta rule: a scanned file the lexer could not tokenize.
pub const LEX_ERROR: &str = "lex-error";

/// One rule's name and contract, for `--list-rules` and the docs.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Kebab-case rule name (the annotation grammar refers to this).
    pub name: &'static str,
    /// The invariant the rule enforces.
    pub summary: &'static str,
    /// Which files the rule governs.
    pub scope: &'static str,
}

/// The suppressible rules (meta rules cannot be `allow`ed away).
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: NO_PANIC,
        summary:
            "no unwrap/expect/panic!/unreachable!/todo!/unimplemented!/slice-index-by-literal \
                  in non-test serving code",
        scope: "crates/serve/src, crates/server/src, crates/tag/src, \
                crates/taxonomy/src/{frozen,view,read,varint,overlay,compact}.rs",
    },
    RuleInfo {
        name: RUNTIME_OWNS,
        summary: "crossbeam, thread::{spawn,Builder,scope} and raw Mutex/RwLock construction only \
                  inside cnp_runtime (allowlisted: the cnp_server accept loop + worker pool)",
        scope: "all first-party src outside crates/runtime",
    },
    RuleInfo {
        name: DETERMINISM,
        summary: "no Instant::now/SystemTime/unseeded RNG, and no hash-map/set iteration, in \
                  pipeline-stage and freeze code",
        scope: "crates/core/src, crates/tag/src, crates/taxonomy/src/{frozen,topo}.rs",
    },
    RuleInfo {
        name: CAPPED_DECODE,
        summary: "decode-path with_capacity/reserve/vec![x; n] must be clamped by remaining input \
                  bytes or a constant cap; counts decoded through the varint readers \
                  (read_varint/varint_at) are called out by name",
        scope: "crates/taxonomy/src/{persist,view,varint}.rs, crates/serve/src/{wire,json}.rs, \
                crates/server/src/http.rs",
    },
    RuleInfo {
        name: OVERLAY_READ_THROUGH,
        summary: "delta segments (DeltaOp / the overlay op log) are consumed only by overlay.rs, \
                  compact.rs and the persist sidecar codec; every other layer reads base+deltas \
                  through TaxonomyRead",
        scope: "all first-party src outside crates/taxonomy/src/{overlay,compact,persist}.rs",
    },
];

/// Whether `name` is a rule the annotation grammar may reference.
pub fn rule_exists(name: &str) -> bool {
    RULES.iter().any(|r| r.name == name)
}

/// Documented, compiled-in exceptions: `(file, rule, reason)`. A finding
/// for `rule` in `file` is suppressed without an inline annotation; the
/// reason is part of the codified contract (and printed by
/// `--list-rules`).
pub const BUILTIN_ALLOWS: &[(&str, &str, &str)] = &[(
    "crates/server/src/server.rs",
    RUNTIME_OWNS,
    "the HTTP accept loop and its worker pool deliberately sit on named std threads feeding \
     cnp_runtime::BoundedQueue — the one sanctioned thread nursery outside the runtime crate",
)];

fn builtin_allowed(file: &str, rule: &str) -> bool {
    BUILTIN_ALLOWS
        .iter()
        .any(|&(f, r, _)| f == file && r == rule)
}

// ----- path scopes ----------------------------------------------------------

fn no_panic_scope(rel: &str) -> bool {
    rel.starts_with("crates/serve/src/")
        || rel.starts_with("crates/server/src/")
        // The tagger executes inside serving workers (Query::Tag); it is
        // serving-path code from day one.
        || rel.starts_with("crates/tag/src/")
        // Every query after the first ingest reads through the overlay,
        // and compaction folds it on a serving-side worker.
        || matches!(
            rel,
            "crates/taxonomy/src/frozen.rs"
                | "crates/taxonomy/src/view.rs"
                | "crates/taxonomy/src/read.rs"
                | "crates/taxonomy/src/varint.rs"
                | "crates/taxonomy/src/overlay.rs"
                | "crates/taxonomy/src/compact.rs"
        )
}

fn runtime_owns_scope(rel: &str) -> bool {
    !rel.starts_with("crates/runtime/")
}

fn determinism_scope(rel: &str) -> bool {
    rel.starts_with("crates/core/src/")
        // Tag responses are part of the byte-identical-across-backends
        // contract, so scoring must be a pure function of its input.
        || rel.starts_with("crates/tag/src/")
        || rel == "crates/taxonomy/src/frozen.rs"
        || rel == "crates/taxonomy/src/topo.rs"
}

fn capped_decode_scope(rel: &str) -> bool {
    matches!(
        rel,
        "crates/taxonomy/src/persist.rs"
            | "crates/taxonomy/src/view.rs"
            | "crates/taxonomy/src/varint.rs"
            | "crates/serve/src/wire.rs"
            | "crates/serve/src/json.rs"
            | "crates/server/src/http.rs"
    )
}

fn overlay_read_through_scope(rel: &str) -> bool {
    !matches!(
        rel,
        "crates/taxonomy/src/overlay.rs"
            | "crates/taxonomy/src/compact.rs"
            | "crates/taxonomy/src/persist.rs"
    )
}

// ----- the checker ----------------------------------------------------------

/// Lints one file's source. `rel` is the workspace-relative path (forward
/// slashes) that decides which rules apply. Returns sorted findings.
pub fn check_file(rel: &str, src: &str) -> Vec<Finding> {
    let lexed = match lex(src) {
        Ok(lexed) => lexed,
        Err(LexError { line, col, message }) => {
            return vec![Finding::new(
                rel,
                line,
                col,
                LEX_ERROR,
                format!("cannot tokenize file: {message}"),
                "fix the malformed source; the invariant scan cannot vouch for this file",
            )]
        }
    };
    let toks = &lexed.toks;
    let tests = find_test_regions(toks);
    let tok_lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
    let allows = parse_allows(rel, &lexed.comments, |line| {
        tok_lines.iter().copied().find(|&l| l > line)
    });

    let mut ctx = Ctx {
        rel,
        toks,
        tests: &tests,
        allows: &allows,
        findings: Vec::new(),
    };
    if no_panic_scope(rel) {
        ctx.rule_no_panic();
    }
    if runtime_owns_scope(rel) {
        ctx.rule_runtime_owns();
    }
    if determinism_scope(rel) {
        ctx.rule_determinism();
    }
    if capped_decode_scope(rel) {
        ctx.rule_capped_decode();
    }
    if overlay_read_through_scope(rel) {
        ctx.rule_overlay_read_through();
    }

    let mut findings = ctx.findings;
    findings.extend(allows.errors.iter().cloned());
    findings.extend(allows.unused(rel));
    findings.sort_by_key(Finding::sort_key);
    findings
}

struct Ctx<'a> {
    rel: &'a str,
    toks: &'a [Tok],
    tests: &'a TestRegions,
    allows: &'a Allows,
    findings: Vec<Finding>,
}

impl<'a> Ctx<'a> {
    fn tok(&self, i: usize) -> Option<&Tok> {
        self.toks.get(i)
    }

    fn is_punct(&self, i: usize, c: char) -> bool {
        self.tok(i).is_some_and(|t| t.is_punct(c))
    }

    fn ident_at(&self, i: usize) -> Option<&str> {
        match self.tok(i) {
            Some(t) if t.kind == TokKind::Ident => Some(&t.text),
            _ => None,
        }
    }

    /// `toks[i..]` starts with `a :: b`.
    fn is_path_seg(&self, i: usize, a: &str, b: &str) -> bool {
        self.toks[i].is_ident(a)
            && self.is_punct(i + 1, ':')
            && self.is_punct(i + 2, ':')
            && self.tok(i + 3).is_some_and(|t| t.is_ident(b))
    }

    /// Emits `finding` unless the position is test-gated, suppressed by an
    /// annotation, or covered by the compiled-in allowlist.
    fn emit(&mut self, at: &Tok, rule: &'static str, message: String, suggestion: &'static str) {
        if self.tests.contains(at.line)
            || builtin_allowed(self.rel, rule)
            || self.allows.suppresses(rule, at.line)
        {
            return;
        }
        self.findings.push(Finding::new(
            self.rel, at.line, at.col, rule, message, suggestion,
        ));
    }

    // ----- rule 1: no-panic-serving-path -----------------------------------

    fn rule_no_panic(&mut self) {
        for i in 0..self.toks.len() {
            let t = &self.toks[i];
            if t.kind == TokKind::Ident {
                if matches!(t.text.as_str(), "unwrap" | "expect")
                    && i > 0
                    && self.is_punct(i - 1, '.')
                    && self.is_punct(i + 1, '(')
                {
                    let msg = format!("`.{}(…)` can panic on the serving path", t.text);
                    self.emit(
                        &t.clone(),
                        NO_PANIC,
                        msg,
                        "return a typed error (QueryError/HttpError/PersistError) instead",
                    );
                } else if matches!(
                    t.text.as_str(),
                    "panic" | "unreachable" | "todo" | "unimplemented"
                ) && self.is_punct(i + 1, '!')
                {
                    let msg = format!("`{}!` aborts a serving worker", t.text);
                    self.emit(
                        &t.clone(),
                        NO_PANIC,
                        msg,
                        "make the impossible state a typed error; a poisoned worker drops its connection",
                    );
                }
            } else if t.is_punct('[')
                && i > 0
                && self
                    .tok(i - 1)
                    .is_some_and(|p| p.kind == TokKind::Ident || p.is_punct(')') || p.is_punct(']'))
                && self.tok(i + 1).is_some_and(|n| n.kind == TokKind::Int)
                && self.is_punct(i + 2, ']')
            {
                let at = self.toks[i + 1].clone();
                let msg = format!(
                    "slice index `[{}]` can panic on out-of-range input",
                    at.text
                );
                self.emit(&at, NO_PANIC, msg, "use `.get(…)` and handle the None");
            }
        }
    }

    // ----- rule 2: runtime-owns-concurrency --------------------------------

    fn rule_runtime_owns(&mut self) {
        for i in 0..self.toks.len() {
            let t = &self.toks[i];
            if t.kind != TokKind::Ident {
                continue;
            }
            match t.text.as_str() {
                "crossbeam" => {
                    self.emit(
                        &t.clone(),
                        RUNTIME_OWNS,
                        "`crossbeam` is runtime-internal".to_string(),
                        "use the cnp_runtime facade (par_* / BoundedQueue / WorkerPool)",
                    );
                }
                "thread" => {
                    for target in ["spawn", "Builder", "scope"] {
                        if self.is_path_seg(i, "thread", target) {
                            let msg = format!(
                                "`thread::{target}` outside cnp_runtime fragments the threading model"
                            );
                            self.emit(
                                &t.clone(),
                                RUNTIME_OWNS,
                                msg,
                                "run the work on cnp_runtime (par_tasks / WorkerPool) so thread \
                                 count and determinism stay centrally governed",
                            );
                        }
                    }
                }
                name @ ("Mutex" | "RwLock") if self.is_path_seg(i, name, "new") => {
                    let msg = format!(
                        "raw `{name}::new` outside cnp_runtime adds an unvetted lock to the serving story"
                    );
                    self.emit(
                        &t.clone(),
                        RUNTIME_OWNS,
                        msg,
                        "keep locks inside cnp_runtime primitives, or annotate why this one is \
                         off the query path",
                    );
                }
                _ => {}
            }
        }
    }

    // ----- rule 3: determinism-contract -------------------------------------

    fn rule_determinism(&mut self) {
        let hash_names = self.collect_hash_bindings();
        for i in 0..self.toks.len() {
            let t = &self.toks[i];
            if t.kind != TokKind::Ident {
                continue;
            }
            match t.text.as_str() {
                "Instant" if self.is_path_seg(i, "Instant", "now") => {
                    self.emit(
                        &t.clone(),
                        DETERMINISM,
                        "`Instant::now` reads the wall clock inside deterministic code".to_string(),
                        "hoist timing to the caller (PipelineReport::time_stage) so stage output \
                         is a pure function of its input",
                    );
                }
                "SystemTime" => {
                    self.emit(
                        &t.clone(),
                        DETERMINISM,
                        "`SystemTime` makes stage output depend on the wall clock".to_string(),
                        "thread timestamps in as explicit inputs",
                    );
                }
                "thread_rng" | "from_entropy" => {
                    let msg = format!("`{}` seeds an RNG from the environment", t.text);
                    self.emit(
                        &t.clone(),
                        DETERMINISM,
                        msg,
                        "use a seeded StdRng (seed_from_u64) so reruns are bit-identical",
                    );
                }
                "rand" if self.is_path_seg(i, "rand", "random") => {
                    self.emit(
                        &t.clone(),
                        DETERMINISM,
                        "`rand::random` draws from an unseeded RNG".to_string(),
                        "use a seeded StdRng (seed_from_u64) so reruns are bit-identical",
                    );
                }
                name if hash_names.iter().any(|h| h == name) => {
                    // `name.iter()` / `for x in &name {`-style iteration.
                    if self.is_punct(i + 1, '.')
                        && matches!(
                            self.ident_at(i + 2),
                            Some(
                                "iter"
                                    | "iter_mut"
                                    | "keys"
                                    | "values"
                                    | "values_mut"
                                    | "into_iter"
                                    | "into_keys"
                                    | "into_values"
                                    | "drain"
                            )
                        )
                        && self.is_punct(i + 3, '(')
                    {
                        let msg = format!(
                            "iterating hash container `{}` feeds nondeterministic order into \
                             pipeline/freeze output",
                            t.text
                        );
                        self.emit(
                            &t.clone(),
                            DETERMINISM,
                            msg,
                            "collect and sort before emitting, or restore first-occurrence order \
                             via cnp_runtime::par_shard_fold",
                        );
                    } else if i >= 1 && self.prev_is_for_in(i) && self.is_punct(i + 1, '{') {
                        let msg = format!(
                            "`for … in {}` iterates a hash container in nondeterministic order",
                            t.text
                        );
                        self.emit(
                            &t.clone(),
                            DETERMINISM,
                            msg,
                            "collect and sort before emitting, or restore first-occurrence order \
                             via cnp_runtime::par_shard_fold",
                        );
                    }
                }
                _ => {}
            }
        }
    }

    /// `toks[i]` is preceded by `in` (with optional `&` / `mut`) — the
    /// iteration subject of a `for` loop.
    fn prev_is_for_in(&self, i: usize) -> bool {
        let mut j = i;
        while j > 0 {
            j -= 1;
            let p = &self.toks[j];
            if p.is_punct('&') || p.is_ident("mut") {
                continue;
            }
            return p.is_ident("in");
        }
        false
    }

    /// Names bound to hash containers in this file: `let [mut] NAME … =
    /// FxHashMap::…;` bindings and `NAME: HashMap<…>` struct fields /
    /// ascriptions.
    fn collect_hash_bindings(&self) -> Vec<String> {
        const HASH_TYPES: [&str; 4] = ["HashMap", "HashSet", "FxHashMap", "FxHashSet"];
        let mut names = Vec::new();
        let toks = self.toks;
        for i in 0..toks.len() {
            if toks[i].is_ident("let") {
                let mut j = i + 1;
                if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                    j += 1;
                }
                let Some(name) = self.ident_at(j) else {
                    continue;
                };
                // Scan the binding's statement (to `;` at bracket depth 0)
                // for a hash-container type name.
                let name = name.to_string();
                let mut depth = 0i32;
                for t in &toks[j + 1..] {
                    if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                        depth += 1;
                    } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                        depth -= 1;
                    } else if t.is_punct(';') && depth <= 0 {
                        break;
                    } else if t.kind == TokKind::Ident && HASH_TYPES.contains(&t.text.as_str()) {
                        names.push(name.clone());
                        break;
                    }
                }
            } else if toks[i].kind == TokKind::Ident
                && self.is_punct(i + 1, ':')
                && !self.is_punct(i + 2, ':')
                && matches!(self.ident_at(i + 2), Some(ty) if HASH_TYPES.contains(&ty))
            {
                names.push(toks[i].text.clone());
            }
        }
        names.sort();
        names.dedup();
        names
    }

    // ----- rule 4: capped-decode --------------------------------------------

    fn rule_capped_decode(&mut self) {
        let varint_names = self.collect_varint_bindings();
        for i in 0..self.toks.len() {
            let t = &self.toks[i];
            if t.kind != TokKind::Ident {
                continue;
            }
            match t.text.as_str() {
                "with_capacity" | "reserve" | "reserve_exact" if self.is_punct(i + 1, '(') => {
                    let args = self.group_inner(i + 1);
                    if !args_are_capped(args) {
                        let msg = match varint_arg(args, &varint_names) {
                            Some(name) => format!(
                                "`{}` sized by the varint-decoded count `{name}` — a raw wire \
                                 value — can pre-allocate unboundedly",
                                t.text
                            ),
                            None => format!(
                                "`{}` sized by untrusted input can pre-allocate unboundedly",
                                t.text
                            ),
                        };
                        self.emit(
                            &t.clone(),
                            CAPPED_DECODE,
                            msg,
                            "clamp by remaining input bytes (`n.min(buf.remaining() / elem_size)`) \
                             or a named constant cap",
                        );
                    }
                }
                "vec" if self.is_punct(i + 1, '!') && self.is_punct(i + 2, '[') => {
                    let inner = self.group_inner(i + 2);
                    // Only the `vec![elem; len]` repeat form allocates by a
                    // length expression.
                    let mut depth = 0i32;
                    let mut semi = None;
                    for (k, a) in inner.iter().enumerate() {
                        if a.is_punct('(') || a.is_punct('[') || a.is_punct('{') {
                            depth += 1;
                        } else if a.is_punct(')') || a.is_punct(']') || a.is_punct('}') {
                            depth -= 1;
                        } else if a.is_punct(';') && depth == 0 {
                            semi = Some(k);
                            break;
                        }
                    }
                    if let Some(k) = semi {
                        let len_args = &inner[k + 1..];
                        if !args_are_capped(len_args) {
                            let msg = match varint_arg(len_args, &varint_names) {
                                Some(name) => format!(
                                    "`vec![…; n]` sized by the varint-decoded count `{name}` — a \
                                     raw wire value — can allocate unboundedly"
                                ),
                                None => "`vec![…; n]` with an input-derived length can allocate \
                                         unboundedly"
                                    .to_string(),
                            };
                            self.emit(
                                &t.clone(),
                                CAPPED_DECODE,
                                msg,
                                "clamp by remaining input bytes (`n.min(buf.remaining() / elem_size)`) \
                                 or a named constant cap",
                            );
                        }
                    }
                }
                _ => {}
            }
        }
    }

    /// Names bound by statements that decode through the varint readers:
    /// `let n = read_varint(…)?`, `let (v, next) = varint_at(…)`, and any
    /// other `let` whose initializer mentions `read_varint` / `varint_at`.
    /// Every identifier in the pattern (before the `=`) is recorded — a
    /// tuple pattern binds all its names.
    fn collect_varint_bindings(&self) -> Vec<String> {
        const VARINT_READERS: [&str; 2] = ["read_varint", "varint_at"];
        let mut names = Vec::new();
        let toks = self.toks;
        for i in 0..toks.len() {
            if !toks[i].is_ident("let") {
                continue;
            }
            // Pattern: idents up to the `=` at depth 0 (skipping `mut`).
            let mut pattern = Vec::new();
            let mut depth = 0i32;
            let mut j = i + 1;
            let mut eq = None;
            while let Some(t) = toks.get(j) {
                if t.is_punct('(') || t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') {
                    depth -= 1;
                } else if t.is_punct('=') && depth <= 0 {
                    eq = Some(j);
                    break;
                } else if t.is_punct(';') && depth <= 0 {
                    break;
                } else if t.kind == TokKind::Ident && !t.is_ident("mut") {
                    pattern.push(t.text.clone());
                }
                j += 1;
            }
            let Some(eq) = eq else { continue };
            // Initializer: to the `;` at depth 0; varint reader mentioned?
            let mut depth = 0i32;
            let mut decodes_varint = false;
            for t in &toks[eq + 1..] {
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                    depth -= 1;
                } else if t.is_punct(';') && depth <= 0 {
                    break;
                } else if t.kind == TokKind::Ident && VARINT_READERS.contains(&t.text.as_str()) {
                    decodes_varint = true;
                }
            }
            if decodes_varint {
                names.extend(pattern);
            }
        }
        names.sort();
        names.dedup();
        names
    }

    /// The tokens strictly inside the bracket group opened at `open_idx`.
    fn group_inner(&self, open_idx: usize) -> &'a [Tok] {
        let toks = self.toks;
        let Some(open) = toks.get(open_idx) else {
            return &[];
        };
        let close_char = match () {
            _ if open.is_punct('(') => ')',
            _ if open.is_punct('[') => ']',
            _ if open.is_punct('{') => '}',
            _ => return &[],
        };
        let open_char = open.text.chars().next().unwrap_or('(');
        let mut depth = 0usize;
        for (i, t) in toks.iter().enumerate().skip(open_idx) {
            if t.is_punct(open_char) {
                depth += 1;
            } else if t.is_punct(close_char) {
                depth -= 1;
                if depth == 0 {
                    return &toks[open_idx + 1..i];
                }
            }
        }
        &[]
    }

    // ----- rule 5: overlay-read-through -------------------------------------

    fn rule_overlay_read_through(&mut self) {
        for i in 0..self.toks.len() {
            let t = &self.toks[i];
            if t.kind != TokKind::Ident {
                continue;
            }
            match t.text.as_str() {
                "DeltaOp" => {
                    self.emit(
                        &t.clone(),
                        OVERLAY_READ_THROUGH,
                        "`DeltaOp` handled outside the overlay write path — delta segments are \
                         an implementation detail of the op log"
                            .to_string(),
                        "serve base+deltas through TaxonomyRead (an OverlayView); only \
                         overlay.rs, compact.rs and the persist codec may consume delta ops",
                    );
                }
                "log_ops" if self.is_punct(i + 1, '(') => {
                    self.emit(
                        &t.clone(),
                        OVERLAY_READ_THROUGH,
                        "`log_ops()` exposes the raw overlay op log outside the write path"
                            .to_string(),
                        "query the merged view through TaxonomyRead; compaction \
                         (IngestDelta::compacted) is the only sanctioned log consumer",
                    );
                }
                _ => {}
            }
        }
    }
}

/// An allocation-size argument is considered capped when it is clamped
/// (`.min(…)` / anything mentioning the remaining input) or when it is a
/// compile-time constant (only literals and SCREAMING_CASE idents).
fn args_are_capped(args: &[Tok]) -> bool {
    if args.is_empty() {
        return true; // `reserve()`-style degenerate call; nothing to cap
    }
    let mentions_clamp = args
        .iter()
        .any(|t| t.kind == TokKind::Ident && (t.text == "min" || t.text.contains("remaining")));
    if mentions_clamp {
        return true;
    }
    args.iter().all(|t| match t.kind {
        TokKind::Int | TokKind::Float | TokKind::Punct => true,
        TokKind::Ident => is_const_ident(&t.text),
        _ => false,
    })
}

/// The first allocation-size argument that names a varint-decoded
/// binding, if any — it upgrades the finding to the varint-specific
/// message.
fn varint_arg<'n>(args: &[Tok], varint_names: &'n [String]) -> Option<&'n str> {
    args.iter().find_map(|t| {
        if t.kind != TokKind::Ident {
            return None;
        }
        varint_names
            .iter()
            .find(|n| n.as_str() == t.text)
            .map(String::as_str)
    })
}

/// `MAX_BODY_BYTES`-style constant names (and `usize`-ish suffix idents in
/// cast expressions like `1 << 16 as usize`).
fn is_const_ident(name: &str) -> bool {
    name.chars()
        .all(|c| c.is_ascii_uppercase() || c == '_' || c.is_ascii_digit())
        || matches!(name, "usize" | "u64" | "u32" | "u16" | "u8" | "as")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(rel: &str, src: &str) -> Vec<Finding> {
        check_file(rel, src)
    }

    #[test]
    fn unwrap_on_serving_path_fires_with_position() {
        let f = findings("crates/serve/src/x.rs", "fn f() {\n    v.unwrap();\n}\n");
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].line, f[0].col, f[0].rule), (2, 7, NO_PANIC));
    }

    #[test]
    fn unwrap_outside_scope_or_in_tests_is_fine() {
        assert!(findings("crates/text/src/x.rs", "fn f() { v.unwrap(); }").is_empty());
        let src = "#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { v.unwrap(); panic!(); }\n}\n";
        assert!(findings("crates/serve/src/x.rs", src).is_empty());
    }

    #[test]
    fn panic_macros_and_literal_index_fire() {
        let src = "fn f(xs: &[u8]) -> u8 {\n  if bad { panic!(\"no\"); }\n  xs[0]\n}\n";
        let f = findings("crates/server/src/x.rs", src);
        assert_eq!(f.len(), 2);
        assert!(f[0].message.contains("panic!"));
        assert!(f[1].message.contains("slice index"));
        // …but unwrap_or / array types / vec! / attributes do not.
        let ok = "fn g() { let a: [u8; 4] = [0; 4]; v.unwrap_or(1); let w = vec![1]; }\n#[rustfmt::skip]\nfn h() {}\n";
        assert!(findings("crates/server/src/x.rs", ok).is_empty());
    }

    #[test]
    fn allow_annotation_suppresses_and_must_be_used() {
        let src = "fn f() {\n  v.unwrap(); // cnp-lint: allow(no-panic-serving-path) reason=\"boot-time only\"\n}\n";
        assert!(findings("crates/serve/src/x.rs", src).is_empty());
        let stale = "fn f() {\n  // cnp-lint: allow(no-panic-serving-path) reason=\"nothing\"\n  clean();\n}\n";
        let f = findings("crates/serve/src/x.rs", stale);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, BAD_ANNOTATION);
    }

    #[test]
    fn concurrency_tokens_fire_outside_runtime_only() {
        let src = "fn f() { std::thread::spawn(|| {}); let m = Mutex::new(0); crossbeam::scope(|s| {}); }";
        let f = findings("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 3);
        assert!(findings("crates/runtime/src/x.rs", src).is_empty());
        // The compiled-in server accept-loop exception.
        assert!(findings(
            "crates/server/src/server.rs",
            "fn f() { thread::Builder::new(); }"
        )
        .is_empty());
    }

    #[test]
    fn determinism_catches_clocks_rngs_and_hash_iteration() {
        let src = "fn f() {\n  let t = Instant::now();\n  let mut m = FxHashMap::default();\n  for (k, v) in &m { emit(k); }\n  let s: HashSet<u32> = HashSet::new();\n  s.iter().for_each(drop);\n  let r = thread_rng();\n}\n";
        let f = findings("crates/core/src/generation/x.rs", src);
        let rules: Vec<_> = f.iter().map(|x| x.rule).collect();
        assert_eq!(rules, vec![DETERMINISM; 4], "{f:#?}");
        assert!(f.iter().any(|x| x.message.contains("Instant::now")));
        assert!(f.iter().any(|x| x.message.contains("for … in m")));
        assert!(f
            .iter()
            .any(|x| x.message.contains("`s`") || x.message.contains("hash container `s`")));
    }

    #[test]
    fn determinism_ignores_sorted_vec_iteration_and_seeded_rng() {
        let src = "fn f() {\n  let v: Vec<u32> = Vec::new();\n  for x in &v {}\n  let mut rng = StdRng::seed_from_u64(42);\n}\n";
        assert!(findings("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn capped_decode_distinguishes_clamped_from_raw() {
        let flagged = "fn d(n: usize, len: usize) {\n  let mut v = Vec::with_capacity(n);\n  let b = vec![0u8; len];\n}\n";
        let f = findings("crates/taxonomy/src/persist.rs", flagged);
        assert_eq!(f.len(), 2, "{f:#?}");
        let ok = "fn d(n: usize, buf: &B) {\n  let mut v = Vec::with_capacity(n.min(buf.remaining() / 4));\n  let mut w = BytesMut::with_capacity(1 << 16);\n  let c = Vec::with_capacity(MAX_HEADERS);\n  let list = vec![1, 2, 3];\n}\n";
        assert!(findings("crates/taxonomy/src/persist.rs", ok).is_empty());
    }

    #[test]
    fn capped_decode_only_governs_decode_files() {
        let src = "fn f(n: usize) { let v = Vec::with_capacity(n); }";
        assert!(findings("crates/serve/src/exec.rs", src).is_empty());
        assert_eq!(findings("crates/serve/src/json.rs", src).len(), 1);
        // ISSUE 8: the v3 view and varint readers are decode paths too.
        assert_eq!(findings("crates/taxonomy/src/view.rs", src).len(), 1);
        assert_eq!(findings("crates/taxonomy/src/varint.rs", src).len(), 1);
    }

    #[test]
    fn varint_decoded_counts_are_called_out_by_name() {
        let flagged = "fn d(buf: &mut &[u8]) -> Result<(), E> {\n  let rows = read_varint(buf, \"rows\")? as usize;\n  let mut v = Vec::with_capacity(rows);\n  let bits = vec![0u8; rows];\n  Ok(())\n}\n";
        let f = findings("crates/taxonomy/src/view.rs", flagged);
        assert_eq!(f.len(), 2, "{f:#?}");
        assert!(
            f[0].message.contains("varint-decoded count `rows`"),
            "{f:#?}"
        );
        assert!(
            f[1].message.contains("varint-decoded count `rows`"),
            "{f:#?}"
        );
        // Tuple patterns bind every name: `varint_at` results count too.
        let tuple = "fn d(buf: &[u8]) {\n  let (n, next) = varint_at(buf, 0).unwrap_or((0, 0));\n  let v = Vec::with_capacity(n as usize);\n}\n";
        let f = findings("crates/taxonomy/src/persist.rs", tuple);
        assert!(
            f.iter()
                .any(|x| x.message.contains("varint-decoded count `n`")),
            "{f:#?}"
        );
    }

    #[test]
    fn capped_varint_counts_are_clean() {
        let ok = "fn d(buf: &mut &[u8]) -> Result<(), E> {\n  let rows = read_varint(buf, \"rows\")? as usize;\n  let mut v = Vec::with_capacity(rows.min(buf.remaining()));\n  Ok(())\n}\n";
        assert!(findings("crates/taxonomy/src/view.rs", ok).is_empty());
    }

    #[test]
    fn delta_ops_are_write_path_only() {
        let src = "fn f(ov: &DeltaOverlay) {\n  for op in ov.log_ops() {\n    if let DeltaOp::Entity { .. } = op {}\n  }\n}\n";
        let f = findings("crates/serve/src/x.rs", src);
        assert_eq!(f.len(), 2, "{f:#?}");
        assert!(f.iter().all(|x| x.rule == OVERLAY_READ_THROUGH), "{f:#?}");
        assert!(f[0].message.contains("log_ops"), "{f:#?}");
        assert!(f[1].message.contains("DeltaOp"), "{f:#?}");
    }

    #[test]
    fn the_overlay_write_path_itself_is_sanctioned() {
        let src = "fn f(ov: &DeltaOverlay) {\n  for op in ov.log_ops() {\n    if let DeltaOp::Entity { .. } = op {}\n  }\n}\n";
        for rel in [
            "crates/taxonomy/src/overlay.rs",
            "crates/taxonomy/src/compact.rs",
            "crates/taxonomy/src/persist.rs",
        ] {
            assert!(findings(rel, src).is_empty(), "{rel} is sanctioned");
        }
        // Reading through the merged view is fine anywhere.
        let ok = "fn g(view: &dyn TaxonomyRead) -> usize { view.men2ent(\"m\").len() }";
        assert!(findings("crates/serve/src/x.rs", ok).is_empty());
    }

    #[test]
    fn tag_crate_is_serving_path_and_deterministic_scope() {
        // ISSUE 10: cnp_tag executes inside serving workers and its
        // output is part of the byte-identical contract — both rules
        // govern it.
        let f = findings(
            "crates/tag/src/score.rs",
            "fn f() {\n  v.unwrap();\n  let t = Instant::now();\n}\n",
        );
        let rules: Vec<_> = f.iter().map(|x| x.rule).collect();
        assert_eq!(rules, vec![NO_PANIC, DETERMINISM], "{f:#?}");
        let hash =
            "fn g() {\n  let mut m = FxHashMap::default();\n  for (k, v) in &m { emit(k); }\n}\n";
        let f = findings("crates/tag/src/index.rs", hash);
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!(f[0].rule, DETERMINISM);
    }

    #[test]
    fn lex_error_is_a_finding_not_a_crash() {
        let f = findings("crates/serve/src/x.rs", "fn f() { \"unterminated }");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, LEX_ERROR);
    }

    #[test]
    fn findings_come_out_sorted() {
        let src = "fn f() {\n  b.unwrap();\n  a.expect(\"x\");\n}\n";
        let f = findings("crates/serve/src/x.rs", src);
        assert_eq!(f.len(), 2);
        assert!(f[0].line < f[1].line);
    }
}
