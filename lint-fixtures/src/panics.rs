//! Panic-freedom: as denied in the request-path modules and the epoll
//! crate. Tests are exempt through clippy.toml.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented
)]

use std::sync::{Mutex, PoisonError};

/// VIOLATION (unwrap_used): a panic here drops the connection.
pub fn parse_port(raw: &str) -> u16 {
    raw.parse().unwrap()
}

/// VIOLATION (expect_used): `.expect` is the same panic with a message.
pub fn parse_host(raw: &str) -> String {
    raw.split(':').next().expect("a host").to_string()
}

/// VIOLATION (panic): request handling must degrade to a typed error.
pub fn route(path: &str) -> &'static str {
    match path {
        "/metrics" => "metrics",
        _ => panic!("unrouted path {path}"),
    }
}

/// VIOLATION (unreachable): `unreachable!` is still an unwind.
pub fn classify(status: u16) -> &'static str {
    match status / 100 {
        2 => "ok",
        4 => "client",
        5 => "server",
        _ => unreachable!(),
    }
}

/// VIOLATION (unimplemented): so is `unimplemented!`.
pub fn upgrade(_protocol: &str) -> u16 {
    unimplemented!()
}

/// CLEAN: poison recovery without a panic path.
pub fn read_counter(lock: &Mutex<u64>) -> u64 {
    *lock.lock().unwrap_or_else(PoisonError::into_inner)
}

/// CLEAN: identifiers merely containing `unwrap` never match.
pub fn unwrap_or_defaults(value: Option<u16>) -> u16 {
    value.unwrap_or(8080)
}

#[cfg(test)]
mod tests {
    /// CLEAN: tests may unwrap and panic freely.
    #[test]
    fn unwraps_are_fine_here() {
        let port: u16 = "80".parse().unwrap();
        assert_eq!(super::parse_port("80"), port);
        if port != 80 {
            panic!("test-only");
        }
    }
}
