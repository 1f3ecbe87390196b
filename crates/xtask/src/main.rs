//! Workspace task runner. One task so far:
//!
//! ```text
//! cargo run -p xtask -- lint [root-dir]
//! ```
//!
//! The **pmem-discipline lint** — a fast, dependency-free text pass over
//! the workspace's Rust sources enforcing five rules the compiler cannot:
//!
//! 1. **raw-store**: raw-pointer store primitives (`ptr::write*`,
//!    `copy_nonoverlapping`, `write_bytes`, `write_volatile`, …) are
//!    forbidden outside `crates/pmem` — every store to pool memory must go
//!    through the traced [`Region`] helpers, or the trace checker is blind
//!    to it. An untraced store is exactly the bug
//!    class ResPCT's flush-on-checkpoint discipline cannot survive.
//! 2. **missing-safety**: every `unsafe` keyword (block, fn, impl) must be
//!    justified by a `// SAFETY:` comment (or a `# Safety` doc section)
//!    within the preceding lines.
//! 3. **format-owner**: each on-media structure of a pool is decoded in one
//!    module. In `crates/respct/src`, outside `#[cfg(test)]` code, the
//!    epoch-record offsets may be named only in `layout.rs` (which defines
//!    them) and `epoch_record.rs`, the registry-chain offsets only in
//!    `layout.rs` and `registry.rs`, an InCLL cell's backup and epoch-tag
//!    offsets only in `layout.rs` and `incll.rs` (everything else goes
//!    through `ICell::{backup_addr, epoch_addr}`) ([`OWNERS`]) — so a
//!    format edit touches one file per structure, and recovery cannot grow
//!    a second, unchecked decoder.
//! 4. **slot-owner**: one more row of the same table. A thread slot's
//!    volatile state sits in an `UnsafeCell` that only `slot.rs` may name:
//!    the `&mut SlotState` every hot path runs on is produced there, behind
//!    the three access tokens, and nowhere else.
//! 5. **ffi-owner**: the one row scoped to the whole workspace. An
//!    `extern "C"` block may appear only in `crates/pmem/src/sys.rs`, so
//!    every raw libc call (`mmap`, `munmap`, `msync`, `clock_gettime`) and
//!    its per-OS constants sit in one file.
//!
//! Escape hatch, for the rare blessed exception:
//! `// pool-lint: allow(<rule>)` (`raw-store`, `missing-safety`,
//! `format-owner`, `slot-owner` or `ffi-owner`) on the offending line or
//! the line above it.
//!
//! Comments and string literals are stripped before token matching, so
//! documentation may talk about `ptr::write` freely.
//!
//! [`Region`]: https://docs.rs/respct-pmem

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Store primitives that bypass the traced `Region` API.
const RAW_STORE_TOKENS: &[&str] = &[
    "ptr::write",
    "write_volatile",
    "write_unaligned",
    "copy_nonoverlapping",
    "copy_to_nonoverlapping",
    "write_bytes",
];

/// Directories (workspace-relative) whose sources are scanned.
const SCAN_DIRS: &[&str] = &["crates", "src", "tests", "examples", "benches"];

/// Path fragments exempt from the raw-store rule: the traced memory
/// abstraction itself, the vendored stand-ins, and this lint.
const RAW_STORE_BLESSED: &[&str] = &["crates/pmem/", "vendor/", "crates/xtask/"];

/// The runtime crate's sources, where most owner rules apply.
const RUNTIME_DIR: &str = "crates/respct/src/";

/// One owner rule: the names that reach inside a structure may appear,
/// under `dir` (workspace-relative; `""` = everywhere), only in `files`.
struct Owner {
    rule: &'static str,
    what: &'static str,
    names: &'static [&'static str],
    dir: &'static str,
    files: &'static [&'static str],
}

const OWNERS: &[Owner] = &[
    Owner {
        rule: "format-owner",
        what: "on-media epoch record",
        names: &["OFF_EPOCH", "OFF_EPOCH_STATE", "epoch_ring_slot"],
        dir: RUNTIME_DIR,
        files: &["layout.rs", "epoch_record.rs"],
    },
    Owner {
        rule: "format-owner",
        what: "on-media registry chain",
        names: &["SLOT_REG_HEAD", "REG_CHUNK_NEXT", "reg_entry_off"],
        dir: RUNTIME_DIR,
        files: &["layout.rs", "registry.rs"],
    },
    Owner {
        rule: "format-owner",
        what: "InCLL cell shape",
        names: &["CELL_BACKUP", "CELL_EPOCH"],
        dir: RUNTIME_DIR,
        files: &["layout.rs", "incll.rs"],
    },
    Owner {
        rule: "slot-owner",
        what: "volatile thread-slot state",
        names: &["UnsafeCell"],
        dir: RUNTIME_DIR,
        files: &["slot.rs"],
    },
    Owner {
        rule: "ffi-owner",
        what: "raw C FFI",
        names: &["extern"],
        dir: "",
        files: &["crates/pmem/src/sys.rs"],
    },
];

#[derive(Debug, Clone, PartialEq, Eq)]
struct Finding {
    file: PathBuf,
    line: usize,
    rule: &'static str,
    message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Replaces comments and string/char literal *contents* with spaces,
/// preserving line structure, so token matching never fires inside either.
/// Comment text itself is inspected separately for `SAFETY` / escapes.
fn strip_comments_and_strings(src: &str) -> String {
    #[derive(Clone, Copy, PartialEq)]
    enum St {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u32),
        Char,
    }
    let b = src.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let mut st = St::Code;
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        let next = |k: usize| b.get(i + k).copied().unwrap_or(0);
        match st {
            St::Code => match c {
                b'/' if next(1) == b'/' => {
                    st = St::LineComment;
                    out.push(b' ');
                }
                b'/' if next(1) == b'*' => {
                    st = St::BlockComment(1);
                    out.push(b' ');
                    out.push(b' ');
                    i += 1;
                }
                b'"' => {
                    st = St::Str;
                    out.push(b'"');
                }
                b'r' if next(1) == b'"'
                    || (next(1) == b'#' && (next(2) == b'#' || next(2) == b'"'))
                    // Not part of an identifier like `ptr` or a lifetime.
                    && !(i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_')) =>
                {
                    let mut hashes = 0;
                    let mut j = i + 1;
                    while j < b.len() && b[j] == b'#' {
                        hashes += 1;
                        j += 1;
                    }
                    if j < b.len() && b[j] == b'"' {
                        st = St::RawStr(hashes);
                        out.extend(std::iter::repeat_n(b' ', j - i + 1));
                        i = j;
                    } else {
                        out.push(c);
                    }
                }
                b'\'' => {
                    // Char literal vs lifetime: a lifetime is 'ident with no
                    // closing quote nearby; treat '…' with a close within 3
                    // bytes (or an escape) as a char literal.
                    if next(1) == b'\\'
                        || next(2) == b'\''
                        || (next(1) != 0 && next(2) != 0 && next(3) == b'\'')
                    {
                        st = St::Char;
                        out.push(b'\'');
                    } else {
                        out.push(c);
                    }
                }
                _ => out.push(c),
            },
            St::LineComment => {
                if c == b'\n' {
                    st = St::Code;
                    out.push(b'\n');
                } else {
                    out.push(b' ');
                }
            }
            St::BlockComment(depth) => {
                if c == b'\n' {
                    out.push(b'\n');
                } else {
                    out.push(b' ');
                }
                if c == b'/' && next(1) == b'*' {
                    st = St::BlockComment(depth + 1);
                    out.push(b' ');
                    i += 1;
                } else if c == b'*' && next(1) == b'/' {
                    st = if depth == 1 {
                        St::Code
                    } else {
                        St::BlockComment(depth - 1)
                    };
                    out.push(b' ');
                    i += 1;
                }
            }
            St::Str => match c {
                b'\\' => {
                    out.push(b' ');
                    out.push(b' ');
                    i += 1;
                }
                b'"' => {
                    st = St::Code;
                    out.push(b'"');
                }
                b'\n' => out.push(b'\n'),
                _ => out.push(b' '),
            },
            St::RawStr(hashes) => {
                if c == b'"' && (0..hashes as usize).all(|k| next(1 + k) == b'#') {
                    st = St::Code;
                    out.extend(std::iter::repeat_n(b' ', hashes as usize + 1));
                    i += hashes as usize;
                } else if c == b'\n' {
                    out.push(b'\n');
                } else {
                    out.push(b' ');
                }
            }
            St::Char => match c {
                b'\\' => {
                    out.push(b' ');
                    out.push(b' ');
                    i += 1;
                }
                b'\'' => {
                    st = St::Code;
                    out.push(b'\'');
                }
                _ => out.push(b' '),
            },
        }
        i += 1;
    }
    String::from_utf8(out).expect("stripped text stays UTF-8")
}

fn has_escape(raw_lines: &[&str], idx: usize, rule: &str) -> bool {
    let pat = format!("pool-lint: allow({rule})");
    raw_lines[idx].contains(&pat) || (idx > 0 && raw_lines[idx - 1].contains(&pat))
}

/// How far above an `unsafe` keyword a `SAFETY` justification may sit.
const SAFETY_LOOKBACK: usize = 8;

/// Lints one file's source text. `path` is workspace-relative (it decides
/// whether the owner rules apply); `raw_store_applies` is false for
/// blessed paths (the traced-memory crate itself).
fn lint_source(path: &Path, src: &str, raw_store_applies: bool) -> Vec<Finding> {
    let stripped = strip_comments_and_strings(src);
    let raw_lines: Vec<&str> = src.lines().collect();
    let mut findings = Vec::new();
    // The structures this file does *not* own, among the rules covering it.
    let rel = path.to_string_lossy().replace('\\', "/");
    let foreign: Vec<_> = OWNERS
        .iter()
        .filter(|o| {
            rel.strip_prefix(o.dir)
                .is_some_and(|file| !o.files.contains(&file))
        })
        .collect();
    let mut in_test_code = false;

    for (idx, line) in stripped.lines().enumerate() {
        let words = || line.split(|c: char| !c.is_ascii_alphanumeric() && c != '_');
        // Unit tests sit at the end of a file, behind its first `cfg(test)`;
        // they may hand-write on-media bytes to build damaged images.
        in_test_code |= line.contains("#[cfg(test)]");
        for o in &foreign {
            if let Some(name) = words().find(|w| o.names.contains(w)) {
                if !in_test_code && !has_escape(&raw_lines, idx, o.rule) {
                    findings.push(Finding {
                        file: path.to_path_buf(),
                        line: idx + 1,
                        rule: o.rule,
                        message: format!(
                            "`{name}` reaches inside the {}, which only {} may \
                             read or write — call that module instead of opening it here",
                            o.what,
                            o.files.join(" and ")
                        ),
                    });
                }
            }
        }

        if raw_store_applies {
            for tok in RAW_STORE_TOKENS {
                if line.contains(tok) && !has_escape(&raw_lines, idx, "raw-store") {
                    findings.push(Finding {
                        file: path.to_path_buf(),
                        line: idx + 1,
                        rule: "raw-store",
                        message: format!(
                            "`{tok}` bypasses the traced Region API — pool memory \
                             stores must go through region helpers (crates/pmem)"
                        ),
                    });
                }
            }
        }

        // `unsafe` keyword (block / fn / impl / trait) needs justification.
        let is_unsafe_use = words().any(|w| w == "unsafe");
        if is_unsafe_use {
            let lo = idx.saturating_sub(SAFETY_LOOKBACK);
            let justified = raw_lines[lo..=idx]
                .iter()
                .any(|l| l.contains("SAFETY:") || l.contains("# Safety") || l.contains("Safety:"));
            if !justified && !has_escape(&raw_lines, idx, "missing-safety") {
                findings.push(Finding {
                    file: path.to_path_buf(),
                    line: idx + 1,
                    rule: "missing-safety",
                    message: "`unsafe` without a `// SAFETY:` justification within \
                              the preceding lines"
                        .to_owned(),
                });
            }
        }
    }
    findings
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let p = entry.path();
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            rust_files(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

fn lint_workspace(root: &Path) -> Vec<Finding> {
    let mut files = Vec::new();
    for d in SCAN_DIRS {
        rust_files(&root.join(d), &mut files);
    }
    files.sort();
    let mut findings = Vec::new();
    for f in files {
        let rel = f.strip_prefix(root).unwrap_or(&f);
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let blessed = RAW_STORE_BLESSED.iter().any(|b| rel_str.starts_with(b));
        let Ok(src) = std::fs::read_to_string(&f) else {
            continue;
        };
        findings.extend(lint_source(rel, &src, !blessed));
    }
    findings
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => {
            let root = args
                .get(1)
                .map_or_else(|| PathBuf::from("."), PathBuf::from);
            let findings = lint_workspace(&root);
            for f in &findings {
                eprintln!("{f}");
            }
            if findings.is_empty() {
                eprintln!("pool lint: clean");
                ExitCode::SUCCESS
            } else {
                eprintln!("pool lint: {} finding(s)", findings.len());
                ExitCode::FAILURE
            }
        }
        _ => {
            eprintln!("usage: cargo run -p xtask -- lint [root-dir]");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_str(src: &str, raw_store: bool) -> Vec<Finding> {
        lint_source(Path::new("test.rs"), src, raw_store)
    }

    #[test]
    fn untraced_store_is_flagged() {
        let src =
            "fn f(p: *mut u64) {\n    // SAFETY: test\n    unsafe { std::ptr::write(p, 7) };\n}\n";
        let f = lint_str(src, true);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "raw-store");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn blessed_crate_may_store_raw() {
        let src =
            "fn f(p: *mut u64) {\n    // SAFETY: test\n    unsafe { std::ptr::write(p, 7) };\n}\n";
        assert!(lint_str(src, false).is_empty());
    }

    #[test]
    fn token_in_comment_or_string_is_ignored() {
        let src = "// ptr::write is forbidden\nconst T: &str = \"copy_nonoverlapping\";\n";
        assert!(lint_str(src, true).is_empty());
    }

    #[test]
    fn unsafe_without_safety_comment_is_flagged() {
        let src = "fn f() {\n    unsafe { core::hint::unreachable_unchecked() }\n}\n";
        let f = lint_str(src, true);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "missing-safety");
    }

    #[test]
    fn safety_comment_within_lookback_passes() {
        let src = "fn f() {\n    // SAFETY: trust me\n    unsafe { core::hint::unreachable_unchecked() }\n}\n";
        assert!(lint_str(src, true).is_empty());
    }

    #[test]
    fn doc_safety_section_covers_unsafe_fn() {
        let src = "/// # Safety\n/// `p` must be valid.\npub unsafe fn f(p: *mut u8) {}\n";
        assert!(lint_str(src, true).is_empty());
    }

    #[test]
    fn escape_hatch_suppresses() {
        let src = "// pool-lint: allow(raw-store)\nfn f(p: *mut u64) { g(write_volatile); }\n";
        assert!(lint_str(src, true).is_empty());
    }

    #[test]
    fn the_word_unsafe_in_a_string_is_ignored() {
        let src = "const M: &str = \"unsafe business\";\n";
        assert!(lint_str(src, true).is_empty());
    }

    #[test]
    fn raw_string_contents_are_stripped() {
        let src = "const T: &str = r#\"ptr::write unsafe\"#;\n";
        assert!(lint_str(src, true).is_empty());
    }

    #[test]
    fn format_offsets_outside_their_owner_are_flagged() {
        let src = "fn f(r: &Region) -> u64 {\n    r.load(layout::OFF_EPOCH)\n}\n";
        let f = lint_source(Path::new("crates/respct/src/pool.rs"), src, true);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!((f[0].rule, f[0].line), ("format-owner", 2));
        assert!(f[0].message.contains("epoch_record.rs"), "{}", f[0].message);
        let src = "fn g(c: u64) -> u64 {\n    c + REG_CHUNK_NEXT + reg_entry_off(3)\n}\n";
        let f = lint_source(Path::new("crates/respct/src/verify.rs"), src, true);
        assert_eq!(f.len(), 1, "one finding per line and structure: {f:?}");
        assert!(f[0].message.contains("registry.rs"), "{}", f[0].message);
    }

    #[test]
    fn format_owners_tests_and_other_crates_may_name_offsets() {
        let src =
            "fn f(r: &Region) -> u64 {\n    r.load(OFF_EPOCH) + r.load(epoch_ring_slot(0))\n}\n";
        for owner in ["layout.rs", "epoch_record.rs"] {
            let path = Path::new("crates/respct/src").join(owner);
            assert!(lint_source(&path, src, true).is_empty(), "{owner}");
        }
        // Each structure has its own owner: the registry is not the epoch
        // record's.
        assert_eq!(
            lint_source(Path::new("crates/respct/src/registry.rs"), src, true).len(),
            1
        );
        // Outside the runtime crate (integration tests, the checker) and
        // behind `cfg(test)` the names are free; so are longer identifiers.
        assert!(lint_source(Path::new("tests/corrupt_media.rs"), src, true).is_empty());
        let unit =
            format!("const MY_OFF_EPOCH_COPY: u64 = 0;\n#[cfg(test)]\nmod tests {{\n{src}}}\n");
        assert!(lint_source(Path::new("crates/respct/src/pool.rs"), &unit, true).is_empty());
        let escaped = "// pool-lint: allow(format-owner)\nconst A: PAddr = OFF_EPOCH_STATE;\n";
        assert!(lint_source(Path::new("crates/respct/src/pool.rs"), escaped, true).is_empty());
    }

    #[test]
    fn cell_field_offsets_are_named_only_in_layout_and_incll() {
        let src = "fn f(r: &Region, a: PAddr) -> u64 {\n    r.load(a.offset(CELL_EPOCH))\n}\n";
        for elsewhere in ["recovery.rs", "verify.rs", "pool.rs"] {
            let f = lint_source(&Path::new("crates/respct/src").join(elsewhere), src, true);
            assert_eq!(f.len(), 1, "{elsewhere}: {f:?}");
            assert_eq!((f[0].rule, f[0].line), ("format-owner", 2));
            assert!(
                f[0].message.contains("InCLL cell shape"),
                "{}",
                f[0].message
            );
            assert!(f[0].message.contains("incll.rs"), "{}", f[0].message);
        }
        let backup = "const B: u64 = layout::CELL_BACKUP;\n";
        assert_eq!(
            lint_source(Path::new("crates/respct/src/slot.rs"), backup, true).len(),
            1
        );
        // The owners, unit tests, other crates and the escape are free.
        for owner in ["layout.rs", "incll.rs"] {
            let path = Path::new("crates/respct/src").join(owner);
            assert!(lint_source(&path, src, true).is_empty(), "{owner}");
        }
        assert!(lint_source(Path::new("crates/analysis/src/race.rs"), src, true).is_empty());
        let unit = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
        assert!(lint_source(Path::new("crates/respct/src/verify.rs"), &unit, true).is_empty());
        let escaped = format!("// pool-lint: allow(format-owner)\n{backup}");
        assert!(lint_source(Path::new("crates/respct/src/pool.rs"), &escaped, true).is_empty());
    }

    #[test]
    fn slot_state_cell_is_named_only_in_slot_rs() {
        let src = "use std::cell::UnsafeCell;\nstruct Mine(UnsafeCell<u64>);\n";
        let f = lint_source(Path::new("crates/respct/src/pool.rs"), src, true);
        assert_eq!(f.len(), 2, "{f:?}");
        assert_eq!((f[0].rule, f[0].line), ("slot-owner", 1));
        assert!(f[0].message.contains("slot.rs"), "{}", f[0].message);
        // Its owner, unit tests, other crates and the escape are free.
        assert!(lint_source(Path::new("crates/respct/src/slot.rs"), src, true).is_empty());
        assert!(lint_source(Path::new("crates/obs/src/hist.rs"), src, true).is_empty());
        let unit = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
        assert!(lint_source(Path::new("crates/respct/src/pool.rs"), &unit, true).is_empty());
        let escaped = "// pool-lint: allow(slot-owner)\nuse std::cell::UnsafeCell;\n";
        assert!(lint_source(Path::new("crates/respct/src/pool.rs"), escaped, true).is_empty());
    }

    #[test]
    fn ffi_is_declared_only_in_pmem_sys_rs() {
        let src = "extern \"C\" {\n    fn getpid() -> i32;\n}\n";
        for elsewhere in ["crates/pmem/src/mmap.rs", "tests/kv_crash.rs", "src/lib.rs"] {
            let f = lint_source(Path::new(elsewhere), src, true);
            assert_eq!(f.len(), 1, "{elsewhere}: {f:?}");
            assert_eq!((f[0].rule, f[0].line), ("ffi-owner", 1));
            assert!(
                f[0].message.contains("crates/pmem/src/sys.rs"),
                "{}",
                f[0].message
            );
        }
        // Its owner, the word in a comment or string, and the escape are free.
        assert!(lint_source(Path::new("crates/pmem/src/sys.rs"), src, true).is_empty());
        let prose = "// extern \"C\" lives in sys.rs\nconst S: &str = \"extern\";\n";
        assert!(lint_source(Path::new("crates/pmem/src/arch.rs"), prose, true).is_empty());
        let escaped = format!("// pool-lint: allow(ffi-owner)\n{src}");
        assert!(lint_source(Path::new("crates/obs/src/lib.rs"), &escaped, true).is_empty());
    }

    /// The real workspace must be clean — this is the tree-wide gate the
    /// CI leg runs via `cargo run -p xtask -- lint`.
    #[test]
    fn workspace_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let findings = lint_workspace(&root);
        assert!(
            findings.is_empty(),
            "workspace lint findings:\n{}",
            findings
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
