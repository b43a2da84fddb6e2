//! Retrying client for the daemon socket.
//!
//! Each request rides its own connection: connect, send one frame, read
//! one frame, close. That keeps cancellation simple on the daemon side
//! (a vanished peer means the request's answer is unwanted) and makes
//! retries safe — `check`/`query`/`stats` are read-only and `edit` is
//! idempotent (it states the file's new contents, not a delta).
//!
//! When the daemon sheds load with `overloaded`, or the connection
//! fails outright (e.g. the daemon is restarting after a crash), the
//! client backs off exponentially with deterministic jitter and tries
//! again. Jitter is derived from a seed hash rather than a clock or an
//! RNG so tests replay byte-for-byte.

use crate::proto::{decode_response, Request, Response};
use crate::wire::{read_frame, write_frame};
use std::io;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Ceiling for a single backoff sleep.
const MAX_BACKOFF_MS: u64 = 2_000;

/// A daemon client bound to one Unix socket path.
pub struct Client {
    socket: PathBuf,
    /// Total attempts per request (first try included).
    pub max_attempts: u32,
    /// Base backoff used when the daemon gives no `retry_after_ms` hint.
    pub base_backoff_ms: u64,
    /// Seed for deterministic jitter.
    pub seed: u64,
}

impl Client {
    /// A client with the default retry policy.
    pub fn new(socket: impl Into<PathBuf>) -> Client {
        Client {
            socket: socket.into(),
            max_attempts: 8,
            base_backoff_ms: 20,
            seed: 0,
        }
    }

    /// The socket path this client targets.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// Sends one request on a fresh connection, no retries.
    pub fn request_once(&self, req: &Request) -> io::Result<Response> {
        let mut stream = UnixStream::connect(&self.socket)?;
        write_frame(&mut stream, req.to_json().to_string().as_bytes())?;
        let payload = read_frame(&mut stream)?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection before responding",
            )
        })?;
        decode_response(&payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Sends a request, retrying with jittered exponential backoff on
    /// connection failures and `overloaded` responses. Any other
    /// response — including `error` — is returned to the caller as-is.
    pub fn request(&self, req: &Request) -> io::Result<Response> {
        let mut last_err: Option<io::Error> = None;
        for attempt in 0..self.max_attempts.max(1) {
            match self.request_once(req) {
                Ok(Response::Overloaded { retry_after_ms }) => {
                    last_err = Some(io::Error::new(
                        io::ErrorKind::WouldBlock,
                        "daemon overloaded",
                    ));
                    std::thread::sleep(Duration::from_millis(
                        self.backoff_ms(attempt, Some(retry_after_ms)),
                    ));
                }
                Ok(resp) => return Ok(resp),
                Err(e) => {
                    last_err = Some(e);
                    std::thread::sleep(Duration::from_millis(self.backoff_ms(attempt, None)));
                }
            }
        }
        Err(last_err
            .unwrap_or_else(|| io::Error::new(io::ErrorKind::TimedOut, "retries exhausted")))
    }

    /// The backoff before retry number `attempt + 1`: the daemon's
    /// `retry_after_ms` hint (or `base_backoff_ms`) doubled per attempt,
    /// capped, then jittered into `[half, full]` deterministically.
    pub fn backoff_ms(&self, attempt: u32, hint_ms: Option<u64>) -> u64 {
        let base = hint_ms.unwrap_or(self.base_backoff_ms).max(1);
        let scaled = base
            .saturating_mul(1u64 << attempt.min(10))
            .min(MAX_BACKOFF_MS);
        let mut seed_bytes = [0u8; 12];
        seed_bytes[..8].copy_from_slice(&self.seed.to_le_bytes());
        seed_bytes[8..].copy_from_slice(&attempt.to_le_bytes());
        let jitter = bootstrap_store::hash_bytes(&seed_bytes) % (scaled / 2 + 1);
        scaled - jitter
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_is_jittered_and_deterministic() {
        let c = Client::new("/tmp/nowhere.sock");
        let a0 = c.backoff_ms(0, None);
        let a3 = c.backoff_ms(3, None);
        assert!((10..=20).contains(&a0), "{a0}");
        assert!((80..=160).contains(&a3), "{a3}");
        assert_eq!(a0, c.backoff_ms(0, None), "jitter must be deterministic");
        // Different seeds land on different points in the window.
        let mut other = Client::new("/tmp/nowhere.sock");
        other.seed = 1;
        assert!(
            (0..16).any(|a| c.backoff_ms(a, None) != other.backoff_ms(a, None)),
            "seeds never diverged"
        );
        // The server hint overrides the base.
        let h = c.backoff_ms(0, Some(500));
        assert!((250..=500).contains(&h), "{h}");
        // Large attempts saturate at the cap's window.
        assert!(c.backoff_ms(30, None) <= MAX_BACKOFF_MS);
    }

    #[test]
    fn missing_socket_surfaces_the_connect_error() {
        let mut c = Client::new("/tmp/definitely-not-a-bootstrap-daemon.sock");
        c.max_attempts = 2;
        c.base_backoff_ms = 1;
        let err = c.request(&Request::Stats).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }
}
