//! Pass 1 — the **plaintext-egress lint**.
//!
//! The paper's security argument rests on one invariant the compiler
//! cannot see: sensitive plaintext (bin values, decrypted tuples) must
//! never reach a wire-encode or socket-write site except through
//! `pds-crypto`.  The partitioned-security checks only catch violations a
//! test happens to exercise; this pass checks the *source text* of every
//! non-test function in the wire-adjacent crates (`cloud`, `proto`,
//! `core`) on every commit.
//!
//! The check is a taint triple over a function's identifier set:
//!
//! * a **source** identifier marks sensitive plaintext in scope
//!   (`sensitive_values`, `decrypt_tuple`, ...);
//! * a **sink** identifier marks wire egress (`write_all`, `encode`,
//!   wire-message constructors, `TcpStream`, ...);
//! * a **boundary** identifier marks the `pds-crypto` seam
//!   (`encrypt`, `Ciphertext`, search `tags`/`tokens`, ...).
//!
//! A function mentioning a source *and* a sink but *no* boundary is
//! exactly the shape of a leak: sensitive data and an egress point in one
//! scope with no evidence of encryption between them.  Identifier-set
//! granularity is deliberately coarse — it cannot prove data flow, but it
//! also cannot be silently defeated by intermediate bindings, and on this
//! codebase it produces zero false positives: the non-sensitive side
//! travels in clear by design under *different* identifiers
//! (`nonsensitive_values`, `plain_tuples`), which exact-token matching
//! keeps distinct.
//!
//! False positives are suppressed with an audited annotation on (or
//! immediately above) the `fn` line:
//!
//! ```text
//! // pds-allow: plaintext-egress(<why this is not a leak>)
//! ```

use crate::report::Finding;
use crate::source::SourceFile;

/// Pass name, as used in findings and `pds-allow` annotations.
pub const PASS: &str = "plaintext-egress";

/// Identifiers that mark sensitive plaintext in scope.
///
/// `sensitive_attr` / `sensitive_predicate` cover the residual-pushdown
/// invariant: a predicate over the sensitive (or searchable) attribute
/// must never be framed for cloud-side evaluation — the planner evaluates
/// those owner-side only, so any function holding one next to a pushdown
/// sink is a leak shape.
pub const SOURCES: &[&str] = &[
    "sensitive_values",
    "sensitive_tuples",
    "decrypted",
    "decrypted_tuples",
    "decrypt_tuple",
    "decrypt_value",
    "sensitive_attr",
    "sensitive_predicate",
];

/// Identifiers that mark a wire-egress point.  `fetch_bin` is the cloud's
/// query entry point, which every query request reaches.  The last two
/// are the residual-pushdown path: the predicate encoder, and the planner
/// accessor that releases a residual onto the wire.
pub const SINKS: &[&str] = &[
    "write_all",
    "encode",
    "encode_frame",
    "to_wire",
    "TcpStream",
    "WireMessage",
    "FetchBinRequest",
    "InsertRequest",
    "BinPayload",
    "fetch_bin",
    "write_predicate",
    "wire_residual",
];

/// Identifiers that mark the `pds-crypto` seam between the two.
pub const BOUNDARY: &[&str] = &[
    "pds_crypto",
    "encrypt",
    "encrypt_tuple",
    "cipher",
    "Ciphertext",
    "tags",
    "tokens",
    "search_tags",
    "encrypted_values",
    "encrypted_rows",
];

/// Runs the lint over the given files.  Returns `(findings, used_allows)`
/// where `used_allows` are `(rel, line)` pairs of annotations that
/// suppressed a real match (the driver fails on stale annotations).
pub fn check(files: &[&SourceFile]) -> (Vec<Finding>, Vec<(String, u32)>) {
    let mut findings = Vec::new();
    let mut used = Vec::new();
    for &file in files {
        for func in file.functions() {
            let span = &file.toks[func.span.clone()];
            let has = |set: &[&str]| {
                span.iter()
                    .find(|t| set.iter().any(|s| t.is_ident(s)))
                    .map(|t| t.text.clone())
            };
            let Some(source) = has(SOURCES) else { continue };
            let Some(sink) = has(SINKS) else { continue };
            if has(BOUNDARY).is_some() {
                continue;
            }
            // Suppression: annotation on the fn line, just above it, or
            // anywhere inside the function (next to the flagged site).
            if let Some(allow) = file
                .allows
                .iter()
                .find(|a| a.pass == PASS && a.line + 1 >= func.line && a.line <= func.end_line)
            {
                used.push((file.rel.clone(), allow.line));
                continue;
            }
            findings.push(Finding {
                pass: PASS,
                file: file.rel.clone(),
                line: func.line,
                message: format!(
                    "fn `{}` mentions sensitive plaintext (`{source}`) and a wire \
                     egress site (`{sink}`) with no pds-crypto boundary in scope; \
                     route the data through pds_crypto or annotate the fn with \
                     `// pds-allow: plaintext-egress(<reason>)`",
                    func.name
                ),
            });
        }
    }
    (findings, used)
}
