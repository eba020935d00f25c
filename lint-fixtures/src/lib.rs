//! Fixtures for the project's clippy rules. Each module opens with the
//! scope attribute its real counterparts carry, and marks every item as a
//! VIOLATION (with the lint that must report it), ALLOWED (a reasoned
//! exemption), CLEAN, or KNOWN GAP (silent, documented). `check.sh`
//! holds the findings to `expected.txt` exactly.

pub mod clean;
pub mod determinism;
pub mod directives;
pub mod fsync;
pub mod panics;
