//! `mdcsim` refuses cache sizes its caches cannot be built with as usage
//! errors: exit status 2 and a one-line message naming the field, never
//! a constructor panic.

use std::process::Command;

#[test]
fn unbuildable_cache_sizes_are_usage_errors() {
    for (flag, field) in [("--mdc", "cfg.mdc.size_bytes"), ("--llc", "cfg.llc_bytes")] {
        let out = Command::new(env!("CARGO_BIN_EXE_mdcsim"))
            .args([flag, "1000", "--accesses", "100"])
            .output()
            .expect("mdcsim runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} 1000: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag} 1000: {stderr}");
        let first = stderr.lines().next().unwrap_or_default();
        assert!(
            first.starts_with("mdcsim: invalid cache geometry:")
                && first.contains(field)
                && first.contains("capacity 1000"),
            "{flag} 1000: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{flag} 1000 ran a simulation");
    }
}
