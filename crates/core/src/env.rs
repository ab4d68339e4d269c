//! Shared parsing of the engine's environment knobs.
//!
//! Two runtime knobs size the software engine to its host:
//! `CSD_POOL_THREADS` (worker pool size) and `CSD_STREAM_SHARDS` (shard
//! count of the sharded streaming mux, when
//! [`StreamMuxConfig::shards`](crate::StreamMuxConfig::shards) leaves it
//! open). Both share one contract — a positive integer, anything else
//! silently ignored in favour of the built-in heuristic — implemented
//! once here so the modules cannot drift. Everything else (lane widths,
//! steal policy) is a config field, not an environment variable.

/// Names of the recognized environment knobs, for documentation and
/// diagnostics.
pub const ENV_KNOBS: [&str; 2] = ["CSD_POOL_THREADS", "CSD_STREAM_SHARDS"];

/// Reads `name` as a positive integer: `Some(n)` when the variable is
/// set, parses (after trimming whitespace), and is at least 1; `None`
/// otherwise — unset, empty, non-numeric, zero, and negative values all
/// fall back to the caller's default.
pub fn positive_usize(name: &str) -> Option<usize> {
    parse_positive(std::env::var(name).ok()?.as_str())
}

/// The parsing rule behind [`positive_usize`], separated for testing
/// without touching the process environment.
fn parse_positive(value: &str) -> Option<usize> {
    value.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_positive_integers() {
        assert_eq!(parse_positive("1"), Some(1));
        assert_eq!(parse_positive("16"), Some(16));
        assert_eq!(parse_positive("  8  "), Some(8), "whitespace trimmed");
    }

    #[test]
    fn rejects_zero_negative_and_garbage() {
        assert_eq!(parse_positive("0"), None);
        assert_eq!(parse_positive("-3"), None);
        assert_eq!(parse_positive(""), None);
        assert_eq!(parse_positive("four"), None);
        assert_eq!(parse_positive("8.5"), None);
        assert_eq!(parse_positive("8 lanes"), None);
    }

    #[test]
    fn unset_variable_reads_none() {
        // A name no test (or machine) sets: the env read path itself.
        assert_eq!(positive_usize("CSDTEST_UNSET_KNOB_XYZZY"), None);
    }

    #[test]
    fn set_variable_reads_through() {
        // A unique name so parallel tests cannot race on it.
        std::env::set_var("CSDTEST_SET_KNOB_XYZZY", "12");
        assert_eq!(positive_usize("CSDTEST_SET_KNOB_XYZZY"), Some(12));
        std::env::set_var("CSDTEST_SET_KNOB_XYZZY", "nope");
        assert_eq!(positive_usize("CSDTEST_SET_KNOB_XYZZY"), None);
        std::env::remove_var("CSDTEST_SET_KNOB_XYZZY");
    }

    #[test]
    fn knob_names_are_documented() {
        assert_eq!(ENV_KNOBS, ["CSD_POOL_THREADS", "CSD_STREAM_SHARDS"]);
    }
}
