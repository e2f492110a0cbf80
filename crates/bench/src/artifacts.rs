//! Shared writer for bench result artifacts (`BENCH_*.json`).
//!
//! Every bench binary emits its results into the run's `--out` directory
//! (`results/` by default), and nowhere else.

use std::io;
use std::path::{Path, PathBuf};

/// Write `contents` as artifact `name` into `out_dir` (created if missing).
/// Returns the path written.
pub fn write_artifact(out_dir: &Path, name: &str, contents: &str) -> io::Result<PathBuf> {
    std::fs::create_dir_all(out_dir)?;
    let path = out_dir.join(name);
    std::fs::write(&path, contents)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_only_into_the_out_dir() {
        let tmp = std::env::temp_dir().join(format!("partix-artifacts-{}", std::process::id()));
        let out = tmp.join("results");
        let path = write_artifact(&out, "BENCH_test_artifact.json", "{\"ok\":true}\n")
            .expect("write artifact");
        assert_eq!(path, out.join("BENCH_test_artifact.json"));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"ok\":true}\n");
        let _ = std::fs::remove_dir_all(&tmp);
    }
}
