//! Minimal readiness wait over sockets: `poll(2)` (unix, no external
//! crates).
//!
//! The router runs every shard attempt of a request on the worker that
//! owns the request, so it needs one blocking call that wakes on
//! whichever attempt socket is ready first — readable once its response
//! arrives, writable once its dial completes or its request can go on —
//! or at the next hedge trigger, or at the deadline. That is exactly
//! `poll(2)`; this wrapper adds the three guarantees the call loop
//! relies on:
//!
//! * the timeout is rounded **up** to whole milliseconds, and an early
//!   wake-up with nothing ready waits out the remainder — a timed-out
//!   wait never returns before its duration, so a hedge never fires
//!   early;
//! * `EINTR` is retried with whatever is left of the wait;
//! * `POLLHUP`/`POLLERR`/`POLLNVAL` count as ready, so a peer close
//!   surfaces at once as a read error (or EOF) instead of waiting out
//!   the deadline.

use std::io;
use std::os::unix::io::RawFd;
use std::time::{Duration, Instant};

/// `struct pollfd` — the same layout on linux and the BSDs (including
/// macOS).
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[cfg(target_os = "linux")]
type NfdsT = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::ffi::c_uint;

// The one call the wrapper needs, declared directly against the C ABI.
extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: i32) -> i32;
}

/// `POLLIN` — shared by linux and the BSDs (including macOS).
const POLLIN: i16 = 0x001;
/// `POLLOUT` — likewise shared.
const POLLOUT: i16 = 0x004;
/// `POLLERR | POLLHUP | POLLNVAL` — likewise shared.
const POLL_CLOSED: i16 = 0x008 | 0x010 | 0x020;

/// Wait until at least one of `fds` is ready — each `(fd, write)` entry
/// asks for writable when `write` is set, readable otherwise, and is
/// also ready once hung up or in error — or `timeout` passes. Returns
/// the positions in `fds` that are ready; empty means the full
/// `timeout` elapsed.
pub(crate) fn ready(fds: &[(RawFd, bool)], timeout: Duration) -> io::Result<Vec<usize>> {
    let mut set: Vec<PollFd> = fds
        .iter()
        .map(|&(fd, write)| PollFd {
            fd,
            events: if write { POLLOUT } else { POLLIN },
            revents: 0,
        })
        .collect();
    let end = Instant::now() + timeout;
    loop {
        let left = end.saturating_duration_since(Instant::now());
        // Whole milliseconds, rounded up (and capped at i32::MAX).
        let ms = left.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32;
        // SAFETY: `set` is a live, exclusively borrowed array of
        // `set.len()` pollfd structs for the duration of the call.
        let rc = unsafe { poll(set.as_mut_ptr(), set.len() as NfdsT, ms) };
        if rc < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                continue;
            }
            return Err(e);
        }
        if rc > 0 {
            return Ok(set
                .iter()
                .enumerate()
                .filter(|(_, p)| p.revents & (p.events | POLL_CLOSED) != 0)
                .map(|(i, _)| i)
                .collect());
        }
        if Instant::now() >= end {
            return Ok(Vec::new());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn a_timeout_reports_nothing_ready_after_no_less_than_the_wait() {
        let (client, _server) = pair();
        for wait in [Duration::from_micros(300), Duration::from_millis(30)] {
            let start = Instant::now();
            let ready = ready(&[(client.as_raw_fd(), false)], wait).unwrap();
            assert!(ready.is_empty(), "nothing was sent: {ready:?}");
            assert!(start.elapsed() >= wait, "woke early: {:?}", start.elapsed());
        }
    }

    #[test]
    fn reports_the_socket_that_has_data() {
        let (quiet, _quiet_peer) = pair();
        let (busy, mut busy_peer) = pair();
        busy_peer.write_all(b"x").unwrap();
        let ready = ready(
            &[(quiet.as_raw_fd(), false), (busy.as_raw_fd(), false)],
            Duration::from_secs(5),
        )
        .unwrap();
        assert_eq!(ready, vec![1]);
    }

    #[test]
    fn reports_a_writable_socket_only_when_write_is_asked() {
        let (conn, _peer) = pair();
        let ready = ready(
            &[(conn.as_raw_fd(), false), (conn.as_raw_fd(), true)],
            Duration::from_secs(5),
        )
        .unwrap();
        assert_eq!(ready, vec![1]);
    }

    #[test]
    fn a_peer_close_reports_ready_and_reads_eof_at_once() {
        let (mut client, server) = pair();
        drop(server);
        let start = Instant::now();
        let ready = ready(&[(client.as_raw_fd(), false)], Duration::from_secs(5)).unwrap();
        assert_eq!(ready, vec![0]);
        assert!(start.elapsed() < Duration::from_secs(1));
        let mut byte = [0u8; 1];
        assert_eq!(client.read(&mut byte).unwrap(), 0, "EOF, not a wait");
    }
}
