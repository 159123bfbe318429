//! IO-001 fixture: raw output-file writes in a result-publishing crate.
//! Linted under `crates/bench/src/fixture.rs`; findings expected at
//! lines 7, 8 and 9 only. Mentions inside strings and comments, the atomic
//! funnel itself, and `#[cfg(test)]` scratch files are clean.

pub fn publish(bytes: &[u8]) {
    let _f = std::fs::File::create("results/out.tsv");
    std::fs::write("results/out.manifest.json", bytes).ok();
    let _j = std::fs::OpenOptions::new().append(true).open("results/run.ckpt");
    // File::create in a comment is fine.
    let _s = "fs::write in a string is fine";
}

#[cfg(test)]
mod tests {
    #[test]
    fn scratch_files_in_tests_are_fine() {
        let _f = std::fs::File::create("/tmp/scratch");
    }
}
