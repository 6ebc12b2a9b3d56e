//! A minimal readiness reactor over `ppoll(2)` — the event-loop substrate
//! of the `conn` workers and the fabric-wired switch hosts.
//!
//! The standard library exposes blocking sockets only, and the workspace
//! deliberately carries no external event-loop dependency, so this module
//! hand-rolls the two primitives a readiness-driven design needs:
//!
//! * [`poll_fds`] — a safe wrapper over the `ppoll(2)` syscall, taking a
//!   reusable [`PollFd`] slice and a [`Duration`] timeout.  The kernel
//!   honours it to the nanosecond (plus timer slack), which is what lets a
//!   `conn` worker sleep towards its own next deadline: a deadline is one
//!   more readiness source of the loop, not a thread beside it;
//! * [`Waker`] — a self-pipe (a nonblocking `UnixStream` pair) whose read
//!   end joins a poll set, so any thread can interrupt a sleeping event
//!   loop with a 1-byte write (one per drain, however many wakes land).
//!
//! All unsafety in the crate is confined to the tiny `sys` module below:
//! one foreign function over two struct layouts, matching the ABI of libc
//! on 64-bit Linux, the platform this workspace targets (its tests read
//! `/proc`).

use std::io::{Read, Write};
use std::os::raw::c_short;
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// One entry of a poll set, laid out as the kernel's `struct pollfd`: a
/// descriptor, the readiness to wait for, and (after [`poll_fds`] returns)
/// the readiness observed.
#[derive(Debug, Clone, Copy)]
#[repr(C)]
pub(crate) struct PollFd {
    fd: RawFd,
    events: c_short,
    revents: c_short,
}

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;
const POLLERR: c_short = 0x008;
const POLLHUP: c_short = 0x010;
const POLLNVAL: c_short = 0x020;

/// The `ppoll(2)` FFI surface.  Kept to the absolute minimum: the
/// `timespec` struct layout and the syscall wrapper.
#[allow(unsafe_code)]
mod sys {
    use super::PollFd;
    use std::os::raw::{c_int, c_long, c_ulong, c_void};
    use std::time::Duration;

    /// `struct timespec` where `time_t` is `long` (64-bit Linux).
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }

    /// Polls `fds` for up to `timeout`.  Returns the number of descriptors
    /// with events, 0 on timeout.
    pub(super) fn poll_raw(fds: &mut [PollFd], timeout: Duration) -> std::io::Result<usize> {
        let timeout = Timespec {
            tv_sec: c_long::try_from(timeout.as_secs()).unwrap_or(c_long::MAX),
            tv_nsec: c_long::from(timeout.subsec_nanos()),
        };
        // SAFETY: `fds` is a valid, exclusively-borrowed slice of
        // `#[repr(C)]` pollfd structs for the duration of the call, and the
        // length is passed alongside; `ppoll` writes only `revents` fields.
        // `timeout` is a live `#[repr(C)]` timespec with `tv_nsec` below one
        // second, which the call only reads; a null `sigmask` leaves the
        // signal mask alone, making this `poll` with a finer timeout.
        let rc = unsafe {
            ppoll(
                fds.as_mut_ptr(),
                fds.len() as c_ulong,
                &timeout,
                std::ptr::null(),
            )
        };
        if rc < 0 {
            Err(std::io::Error::last_os_error())
        } else {
            Ok(rc as usize)
        }
    }
}

impl PollFd {
    /// An entry waiting for the given readiness on `fd`.
    pub(crate) fn new(fd: RawFd, want_read: bool, want_write: bool) -> Self {
        let events = (if want_read { POLLIN } else { 0 }) | (if want_write { POLLOUT } else { 0 });
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// The descriptor became readable (or reached EOF — a read will tell).
    pub(crate) fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLHUP | POLLERR) != 0
    }

    /// The descriptor became writable.
    pub(crate) fn writable(&self) -> bool {
        self.revents & (POLLOUT | POLLERR) != 0
    }

    /// The peer hung up or the descriptor is in an error state; the owner
    /// should read/write to collect the actual error and tear down.
    pub(crate) fn hangup(&self) -> bool {
        self.revents & (POLLHUP | POLLERR | POLLNVAL) != 0
    }
}

/// Waits until at least one entry of `fds` is ready or `timeout` elapses.
/// Readiness is reported through the entries' accessor methods; entries
/// from a previous call are reset.  `EINTR` is treated as a zero-ready
/// timeout so callers simply loop.
pub(crate) fn poll_fds(fds: &mut [PollFd], timeout: Duration) -> usize {
    match sys::poll_raw(fds, timeout) {
        Ok(n) => n,
        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
            // The kernel reset no `revents` on this path.
            fds.iter_mut().for_each(|p| p.revents = 0);
            0
        }
        Err(e) => panic!("ppoll(2) failed: {e}"),
    }
}

/// A self-pipe waker: the read end sits in a poll set; [`Waker::wake`]
/// from any thread makes that poll return immediately.  Writes and reads
/// are nonblocking — a full pipe means a wake-up is already pending, which
/// is all a level-triggered loop needs.
#[derive(Debug)]
pub(crate) struct Waker {
    read_end: UnixStream,
    write_end: UnixStream,
    /// A wake-up is in the pipe that the owner has not drained yet, so
    /// further wakes are already delivered and skip their write: a burst
    /// of wakes costs one syscall, not one each.
    pending: AtomicBool,
}

impl Waker {
    pub(crate) fn new() -> std::io::Result<Self> {
        let (read_end, write_end) = UnixStream::pair()?;
        read_end.set_nonblocking(true)?;
        write_end.set_nonblocking(true)?;
        Ok(Waker {
            read_end,
            write_end,
            pending: AtomicBool::new(false),
        })
    }

    /// The descriptor to include (read-interest) in a poll set.
    pub(crate) fn fd(&self) -> RawFd {
        self.read_end.as_raw_fd()
    }

    /// Interrupts the owning poll loop.  Callable from any thread through a
    /// shared reference; a `WouldBlock` (pipe already full) means the loop
    /// is guaranteed to wake anyway.
    pub(crate) fn wake(&self) {
        if !self.pending.swap(true, Ordering::AcqRel) {
            let _ = (&self.write_end).write(&[1u8]);
        }
    }

    /// Consumes pending wake-ups so the next poll sleeps again.  Call after
    /// every poll return that reported the waker readable.
    pub(crate) fn drain(&self) {
        let mut buf = [0u8; 64];
        while let Ok(n) = (&self.read_end).read(&mut buf) {
            if n < buf.len() {
                break; // a short read emptied the pipe
            }
        }
        // Cleared only after the read: a wake that skipped its write while
        // the flag was up is covered by the owner looking at its work after
        // this returns; one that lands later writes a fresh byte.
        self.pending.swap(false, Ordering::AcqRel);
    }
}

#[cfg(test)]
impl Waker {
    /// A wake-up is written and not yet drained.
    pub(crate) fn is_pending(&self) -> bool {
        self.pending.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn waker_interrupts_a_sleeping_poll() {
        let waker = Arc::new(Waker::new().unwrap());
        let remote = Arc::clone(&waker);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            remote.wake();
        });
        let mut fds = [PollFd::new(waker.fd(), true, false)];
        let start = Instant::now();
        // Without the wake this would sleep the full 5 s.
        let n = poll_fds(&mut fds, Duration::from_secs(5));
        assert_eq!(n, 1);
        assert!(fds[0].readable());
        assert!(start.elapsed() < Duration::from_secs(2));
        waker.drain();
        // Drained: an immediate re-poll times out instead of spinning.
        let n = poll_fds(&mut fds, Duration::ZERO);
        assert_eq!(n, 0, "drained waker must not stay readable");
        t.join().unwrap();
    }

    #[test]
    fn repeated_wakes_coalesce() {
        let waker = Waker::new().unwrap();
        for _ in 0..10_000 {
            waker.wake(); // must never block, even with no reader
        }
        let mut fds = [PollFd::new(waker.fd(), true, false)];
        assert_eq!(poll_fds(&mut fds, Duration::ZERO), 1);
        waker.drain();
        assert_eq!(poll_fds(&mut fds, Duration::ZERO), 0);
        // The drain re-armed it: the next wake writes again.
        waker.wake();
        assert_eq!(poll_fds(&mut fds, Duration::ZERO), 1);
    }

    #[test]
    fn poll_reports_writability_and_timeout() {
        let (a, _b) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(a.as_raw_fd(), true, true)];
        let n = poll_fds(&mut fds, Duration::from_millis(100));
        assert_eq!(n, 1);
        assert!(fds[0].writable(), "fresh socket must be writable");
        assert!(!fds[0].readable(), "nothing was sent");

        let mut fds = [PollFd::new(a.as_raw_fd(), true, false)];
        let start = Instant::now();
        assert_eq!(poll_fds(&mut fds, Duration::from_millis(50)), 0);
        assert!(start.elapsed() >= Duration::from_millis(45));
    }
}
