//! Reproducibility stamp: the host, compiler and source a result came from.
//!
//! Everything is read from the processor (CPUID), the build, or the files of
//! the checkout the benchmark runs in.

use std::path::{Path, PathBuf};

/// Processor brand string from CPUID leaves 0x8000_0002..=0x8000_0004.
#[cfg(target_arch = "x86_64")]
pub fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    if __cpuid(0x8000_0000).eax < 0x8000_0004 {
        return "unknown".to_string();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        let r = __cpuid(leaf);
        for reg in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&reg.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes)
        .trim_matches('\0')
        .trim()
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
pub fn cpu_model() -> String {
    "unknown".to_string()
}

/// Commit the checkout's `.git` points at, or `none` outside a git
/// checkout.
pub fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let Ok(kind) = entry.file_type() else {
            continue;
        };
        if kind.is_dir() {
            if entry.file_name() != "target" {
                collect(&path, out);
            }
        } else if kind.is_file() {
            out.push(path);
        }
    }
}

/// FNV-1a digest over the paths and contents of the sources the benchmark
/// builds from, so results from checkouts without git history stay
/// attributable.
pub fn source_digest() -> String {
    let mut files = Vec::new();
    for top in ["crates", "vendor", "perfbench/src"] {
        collect(Path::new(top), &mut files);
    }
    files.extend(
        [
            "Cargo.toml",
            "Cargo.lock",
            "perfbench/Cargo.toml",
            "perfbench/build.rs",
        ]
        .map(PathBuf::from),
    );
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let Ok(bytes) = std::fs::read(f) else {
            continue;
        };
        for &b in f.to_string_lossy().as_bytes().iter().chain(&bytes) {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// One-line stamp printed with every result.
pub fn line(shards: usize) -> String {
    format!(
        "host: nproc={shards} cpu=\"{}\" rustc=\"{}\" git={} src_digest={}",
        cpu_model(),
        env!("PERFBENCH_RUSTC"),
        git_revision(),
        source_digest()
    )
}
