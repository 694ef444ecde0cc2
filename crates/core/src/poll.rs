//! Readiness for the TCP front door: a blocking [`wait`] on a set of
//! file descriptors, and a [`Waker`] that ends that wait from any
//! thread, writing its socket only while the waiter is parked.
//!
//! The vendored crates offer no readiness primitive (no `mio`, no
//! `libc`, and the channel stand-in has no `select!`), so this module
//! declares the one C function it needs, `poll(2)`, and keeps the
//! crate's only `unsafe` block behind a safe wrapper (DESIGN.md §19).

use ppms_obs::Counter;
use std::io::{self, Read, Write};
use std::os::raw::{c_int, c_short, c_ulong};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

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

    /// Whether the last [`wait`] reported any event on this descriptor
    /// (one it asked for, a hang-up or an error).
    pub fn ready(&self) -> bool {
        self.revents != 0
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
/// read end sits in the waiter's descriptor set, plus a `parked` flag
/// so that only a waiter that is actually blocked costs a `write(2)`.
///
/// The handshake (DESIGN.md §19): the waiter calls [`park`], then
/// re-checks every source of work, and only then blocks in [`wait`];
/// a waker publishes its work first and then calls [`wake`]. All four
/// steps are `SeqCst`, so either the waiter's re-check sees the work
/// or the waker sees the flag and writes.
///
/// [`park`]: Waker::park
/// [`wake`]: Waker::wake
#[derive(Debug)]
pub struct Waker {
    tx: UnixStream,
    rx: UnixStream,
    parked: AtomicBool,
    /// Counts the wakes that wrote the socket (`tcp.wake_writes`).
    writes: Arc<Counter>,
}

impl Waker {
    /// A fresh waker with no wake pending and its waiter running.
    pub fn new(writes: Arc<Counter>) -> io::Result<Waker> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Waker {
            tx,
            rx,
            parked: AtomicBool::new(false),
            writes,
        })
    }

    /// Makes the read end readable if the waiter is parked; a running
    /// waiter finds the caller's work on its own. Only the first wake
    /// per park writes. A full socket buffer (`WouldBlock`) already
    /// means a wake is pending, so errors are ignored.
    pub fn wake(&self) {
        if self.parked.load(Ordering::SeqCst) && self.parked.swap(false, Ordering::SeqCst) {
            self.writes.inc();
            let _ = (&self.tx).write(&[1]);
        }
    }

    /// Waiter side: announce the coming [`wait`]. The caller must
    /// re-check its work sources after this and before blocking.
    pub fn park(&self) {
        self.parked.store(true, Ordering::SeqCst);
    }

    /// Waiter side: running again (after the wait, or instead of it).
    pub fn unpark(&self) {
        self.parked.store(false, Ordering::SeqCst);
    }

    /// The descriptor to watch for `POLLIN`.
    pub fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Consumes the pending wakes, so the next [`wait`] blocks again.
    /// One read suffices: at most one byte is written per park.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        let _ = (&self.rx).read(&mut buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::ErrorKind;

    fn waker() -> Waker {
        Waker::new(Arc::new(Counter::new())).unwrap()
    }

    #[test]
    fn a_wake_ends_the_wait_and_drain_rearms_it() {
        let waker = waker();
        waker.park();
        waker.wake();
        waker.wake();
        assert_eq!(waker.writes.get(), 1, "one write per park");
        let mut fds = [PollFd::new(waker.fd(), POLLIN)];
        assert_eq!(wait(&mut fds).unwrap(), 1);
        assert!(fds[0].ready());
        waker.unpark();
        waker.drain();
        let mut buf = [0u8; 1];
        let err = (&waker.rx).read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::WouldBlock, "drain left a wake");
    }

    #[test]
    fn a_running_waiter_costs_no_write() {
        let waker = waker();
        waker.wake();
        waker.park();
        waker.unpark();
        waker.wake();
        assert_eq!(waker.writes.get(), 0);
        let mut buf = [0u8; 1];
        let err = (&waker.rx).read(&mut buf).unwrap_err();
        assert_eq!(
            err.kind(),
            ErrorKind::WouldBlock,
            "a running waiter was written"
        );
    }
}
