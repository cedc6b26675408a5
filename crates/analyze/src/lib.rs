//! # pds-analyze — workspace-wide static analysis for the QB daemon.
//!
//! Project-specific invariants the compiler cannot check, run as a CI
//! gate (`cargo run -p pds-analyze -- check`):
//!
//! 1. **[`egress`]** — the plaintext-egress lint.  Sensitive plaintext
//!    must not reach wire-encode/socket-write sites in `cloud`/`proto`/
//!    `core`/`common` without a `pds-crypto` boundary in scope.
//! 2. **[`lockorder`]** — the lock-order pass.  `OrderedMutex` classes in
//!    the daemon path must nest acyclically; the runtime half of this
//!    witness is `pds_common::lockcheck` under the `lockcheck` feature.
//! 3. **[`panics`]** — the panic-path audit.  Hot-path files forbid panic
//!    sites outright; everywhere else a committed ratchet
//!    (`crates/analyze/ratchet.toml`) only ever goes down.
//! 4. **[`attributes`]** — every workspace crate root carries
//!    `#![forbid(unsafe_code)]`.
//! 5. **[`redaction`]** — the telemetry-redaction lint.  No `pds-obs`
//!    trace/metric emission call may take sensitive-plaintext
//!    identifiers in its argument list, anywhere in the workspace.
//! 6. **[`alloc`]** — the hot-path allocation lint.  The per-frame wire
//!    codec must not allocate fresh buffers (`Vec::new`, `vec!`,
//!    `.to_vec()`) outside the buffer pool's audited cold path; frames
//!    reuse the thread-local free list.
//!
//! Suppressions use one audited grammar, checked for staleness: a
//! `// pds-allow: <pass>(<reason>)` comment on (or directly above) the
//! offending line, where `<pass>` is one of `plaintext-egress`,
//! `lock-order`, `panic-path`, `hot-alloc` and `<reason>` is mandatory
//! free text.  An
//! annotation that no longer suppresses anything, or that names an
//! unknown pass, is itself a finding — the suppression inventory cannot
//! rot.
//!
//! Everything is built on a hand-rolled lexer ([`lexer`]) — no external
//! parser crates, consistent with the workspace's vendored-offline
//! policy, and total so half-edited files degrade instead of crashing
//! the gate.

#![forbid(unsafe_code)]

pub mod alloc;
pub mod attributes;
pub mod egress;
pub mod lexer;
pub mod lockorder;
pub mod panics;
pub mod redaction;
pub mod report;
pub mod source;

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

use report::{Finding, Report};
use source::SourceFile;

/// Pass names a `pds-allow` annotation may legitimately target.
pub const KNOWN_PASSES: &[&str] = &[
    alloc::PASS,
    egress::PASS,
    lockorder::PASS,
    panics::PASS,
    redaction::PASS,
];

/// Directories whose non-test functions get the plaintext-egress lint:
/// the wire-adjacent crates, and pds-common, whose codec writes and reads
/// the wire's bytes.
pub const EGRESS_DIRS: &[&str] = &[
    "crates/cloud/src",
    "crates/proto/src",
    "crates/core/src",
    "crates/common/src",
];

/// Files whose lock acquisitions feed the lock-order nesting graph: the
/// daemon's concurrent path.
pub const LOCK_FILES: &[&str] = &[
    "crates/cloud/src/service.rs",
    "crates/cloud/src/tcp.rs",
    "crates/cloud/src/cache.rs",
];

/// Files where panic sites are forbidden outright: the daemon
/// accept/serve/write path and the wire codec with the shared byte reader
/// under it, where a panic either kills a worker or turns attacker bytes
/// into a crash.
pub const HOT_FILES: &[&str] = &[
    "crates/cloud/src/service.rs",
    "crates/cloud/src/tcp.rs",
    "crates/proto/src/frame.rs",
    "crates/proto/src/messages.rs",
    "crates/common/src/codec.rs",
];

/// Files forming the per-frame wire codec loop, where fresh heap
/// allocations defeat the buffer pool: the frame codec and the pool
/// itself (whose single cold-path allocation carries an audited allow).
pub const HOT_ALLOC_FILES: &[&str] = &["crates/proto/src/frame.rs", "crates/proto/src/pool.rs"];

/// Workspace-relative path of the committed panic-site ratchet.
pub const RATCHET_FILE: &str = "crates/analyze/ratchet.toml";

/// Loads every analyzable production `.rs` file in the workspace
/// (everything under `crates/` and the root `src/`; `vendor/` is external
/// code and exempt from all passes except the unsafe-attribute check).
pub fn load_workspace(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut rels = source::rust_files_under(root, "crates")?;
    rels.extend(source::rust_files_under(root, "src")?);
    rels.sort();
    rels.iter().map(|rel| SourceFile::load(root, rel)).collect()
}

/// Runs every pass over the workspace at `root` and aggregates the
/// findings.  `Err` is reserved for environmental failures (unreadable
/// workspace); analysis findings always come back as an `Ok` report.
pub fn run_check(root: &Path) -> Result<Report, String> {
    let manifest = fs::read_to_string(root.join("Cargo.toml"))
        .map_err(|e| format!("cannot read {}/Cargo.toml: {e}", root.display()))?;
    let files = load_workspace(root)?;
    let mut report = Report::default();
    let mut used: BTreeSet<(String, u32)> = BTreeSet::new();

    // Pass 1: plaintext egress over the wire-adjacent crates.
    let egress_files: Vec<&SourceFile> = files
        .iter()
        .filter(|f| EGRESS_DIRS.iter().any(|d| f.rel.starts_with(d)))
        .collect();
    let fn_count: usize = egress_files.iter().map(|f| f.functions().len()).sum();
    let (findings, u) = egress::check(&egress_files);
    report.summary.push(format!(
        "plaintext-egress: {} file(s), {fn_count} function(s), {} finding(s)",
        egress_files.len(),
        findings.len()
    ));
    report.findings.extend(findings);
    used.extend(u);

    // Pass 2: lock-order graph over the daemon's concurrent path.
    let lock_files: Vec<&SourceFile> = files
        .iter()
        .filter(|f| LOCK_FILES.contains(&f.rel.as_str()))
        .collect();
    let (findings, u, summary) = lockorder::check(&lock_files);
    report.summary.push(summary);
    report.findings.extend(findings);
    used.extend(u);

    // Pass 3: panic audit — hot-path forbid plus the workspace ratchet.
    let hot: BTreeSet<&str> = HOT_FILES.iter().copied().collect();
    let baseline = fs::read_to_string(root.join(RATCHET_FILE))
        .ok()
        .and_then(|text| panics::parse_ratchet(&text));
    let file_refs: Vec<&SourceFile> = files.iter().collect();
    let (findings, u, summary, _count) = panics::check(&file_refs, &hot, baseline, RATCHET_FILE);
    report.summary.push(summary);
    report.findings.extend(findings);
    used.extend(u);

    // Pass 4: telemetry redaction over the whole workspace — any crate
    // may instrument itself, so any crate can leak through a label.
    let emission_count: usize = file_refs
        .iter()
        .map(|f| {
            f.toks
                .iter()
                .filter(|t| redaction::SINKS.iter().any(|s| t.is_ident(s)))
                .count()
        })
        .sum();
    let (findings, u) = redaction::check(&file_refs);
    report.summary.push(format!(
        "telemetry-redaction: {} file(s), {emission_count} emission site(s), {} finding(s)",
        file_refs.len(),
        findings.len()
    ));
    report.findings.extend(findings);
    used.extend(u);

    // Pass 5: hot-path allocation lint over the per-frame codec files.
    let alloc_files: Vec<&SourceFile> = files
        .iter()
        .filter(|f| HOT_ALLOC_FILES.contains(&f.rel.as_str()))
        .collect();
    let (findings, u) = alloc::check(&alloc_files);
    report.summary.push(format!(
        "hot-alloc: {} codec file(s), {} finding(s)",
        alloc_files.len(),
        findings.len()
    ));
    report.findings.extend(findings);
    used.extend(u);

    // Pass 6: unsafe-code attribute on every workspace crate root.
    let (findings, summary) = attributes::check(root, &manifest);
    report.summary.push(summary);
    report.findings.extend(findings);

    // Pass 7: annotation hygiene.  Every harvested allow must name a
    // known pass and have suppressed something this run.
    let mut stale = 0usize;
    for file in &files {
        for allow in &file.allows {
            if !KNOWN_PASSES.contains(&allow.pass.as_str()) {
                stale += 1;
                report.findings.push(Finding {
                    pass: "annotations",
                    file: file.rel.clone(),
                    line: allow.line,
                    message: format!(
                        "`pds-allow: {}` names an unknown pass; known passes are {}",
                        allow.pass,
                        KNOWN_PASSES.join(", ")
                    ),
                });
            } else if !used.contains(&(file.rel.clone(), allow.line)) {
                stale += 1;
                report.findings.push(Finding {
                    pass: "annotations",
                    file: file.rel.clone(),
                    line: allow.line,
                    message: format!(
                        "stale `pds-allow: {}` — it no longer suppresses any \
                         finding; remove it so the suppression inventory stays \
                         honest",
                        allow.pass
                    ),
                });
            }
        }
    }
    let allow_total: usize = files.iter().map(|f| f.allows.len()).sum();
    report.summary.push(format!(
        "annotations: {allow_total} pds-allow annotation(s), {} in active use, {stale} stale/unknown",
        used.len()
    ));

    Ok(report)
}

/// Counts the current workspace panic sites (for `pds-analyze ratchet`).
pub fn current_panic_count(root: &Path) -> Result<u64, String> {
    let files = load_workspace(root)?;
    let mut used = Vec::new();
    let mut count = 0u64;
    for file in &files {
        count += panics::sites_in(file, &mut used).len() as u64;
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_constants_are_consistent() {
        for f in LOCK_FILES {
            assert!(
                EGRESS_DIRS.iter().any(|d| f.starts_with(d)),
                "lock files live in wire-adjacent crates"
            );
        }
        for f in HOT_FILES {
            assert!(EGRESS_DIRS.iter().any(|d| f.starts_with(d)));
        }
        for f in HOT_ALLOC_FILES {
            assert!(
                EGRESS_DIRS.iter().any(|d| f.starts_with(d)),
                "codec files live in wire-adjacent crates"
            );
        }
    }
}
