//! Readiness for the TCP front door: a blocking [`wait`] on a set of
//! file descriptors, and a [`Waker`] that ends that wait from any
//! thread.
//!
//! The vendored crates offer no readiness primitive (no `mio`, no
//! `libc`, and the channel stand-in has no `select!`), so this module
//! declares the one C function it needs, `poll(2)`, and keeps the
//! crate's only `unsafe` block behind a safe wrapper (DESIGN.md §19).

use std::io::{self, ErrorKind, Read, Write};
use std::os::raw::{c_int, c_short, c_ulong};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;

/// Readable (or, on a listener, an accept is waiting).
pub const POLLIN: c_short = 0x001;
/// Writable without blocking.
pub const POLLOUT: c_short = 0x004;

/// One `struct pollfd`: a descriptor and the events wanted on it.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Watch `fd` for `events` (`POLLIN`, `POLLOUT` or both).
    pub fn new(fd: RawFd, events: c_short) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }
}

extern "C" {
    // `nfds_t` is `unsigned long` on Linux.
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Blocks, with no timeout, until at least one descriptor in `fds` is
/// ready (hang-ups and errors count as ready). Returns how many are.
pub fn wait(fds: &mut [PollFd]) -> io::Result<usize> {
    // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
    // values laid out as `struct pollfd`, and `nfds` is its length, so
    // the kernel reads and writes only memory the slice owns for the
    // duration of the call.
    let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, -1) };
    if n < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(n as usize)
    }
}

/// Ends a [`wait`] from another thread: a nonblocking socket pair whose
/// read end sits in the waiter's descriptor set.
#[derive(Debug)]
pub struct Waker {
    tx: UnixStream,
    rx: UnixStream,
}

impl Waker {
    /// A fresh waker with no wake pending.
    pub fn new() -> io::Result<Waker> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Waker { tx, rx })
    }

    /// Makes the read end readable. A full socket buffer (`WouldBlock`)
    /// already means a wake is pending, so errors are ignored.
    pub fn wake(&self) {
        let _ = (&self.tx).write(&[1]);
    }

    /// The descriptor to watch for `POLLIN`.
    pub fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Consumes every pending wake, so the next [`wait`] blocks again.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            match (&self.rx).read(&mut buf) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wake_ends_the_wait_and_drain_rearms_it() {
        let waker = Waker::new().unwrap();
        waker.wake();
        waker.wake();
        let mut fds = [PollFd::new(waker.fd(), POLLIN)];
        assert_eq!(wait(&mut fds).unwrap(), 1);
        assert_ne!(fds[0].revents & POLLIN, 0);
        waker.drain();
        let mut buf = [0u8; 1];
        let err = (&waker.rx).read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::WouldBlock, "drain left a wake");
    }
}
