//! Blocking socket readiness for the wire mux: a safe wrapper over
//! `poll(2)` and a wake fd that lets other threads interrupt the wait.
//!
//! `std` has sockets but no readiness API, and there is no registry to
//! take `libc` or `mio` from, so this crate declares the one foreign
//! function itself, with Linux's types. It is the only crate in the
//! workspace allowed `unsafe`; everything it exports is safe to call.

#![warn(missing_docs)]

use std::ffi::{c_int, c_short};
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Data can be read without blocking (or the peer closed its end).
pub const POLLIN: i16 = 0x001;
/// Data can be written without blocking.
pub const POLLOUT: i16 = 0x004;

/// One entry of the set handed to [`poll`]: laid out as C's
/// `struct pollfd`.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Watches `fd` for `events` (a mask of [`POLLIN`] / [`POLLOUT`]).
    /// A negative `fd` is skipped by the kernel: the way to keep a slot
    /// whose owner currently waits for nothing, since hang-ups are
    /// reported even for an empty mask.
    pub fn new(fd: RawFd, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// What the last [`poll`] reported for this entry (0 = nothing).
    /// Hang-ups and errors are reported whether asked for or not: treat
    /// any bit outside the requested mask as "the pending read or write
    /// will now fail; make it".
    pub fn revents(&self) -> i16 {
        self.revents
    }
}

/// Linux's `nfds_t`.
type NfdsT = std::ffi::c_ulong;

extern "C" {
    #[link_name = "poll"]
    fn sys_poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
}

/// Sleeps until an entry of `fds` is ready or `timeout` elapses (`None`
/// = no timeout) and returns how many entries have non-zero
/// [`PollFd::revents`]. A signal interrupting the wait (`EINTR`) is
/// retried with the time that is left. The timeout is rounded *up* to
/// `poll(2)`'s millisecond grain, so a caller that waits for a deadline
/// never wakes just short of it and spins.
pub fn poll(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let deadline = timeout.map(|t| Instant::now() + t);
    loop {
        let ms = match deadline {
            None => -1,
            Some(d) => {
                let left = d.saturating_duration_since(Instant::now());
                c_int::try_from(left.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX)
            }
        };
        // SAFETY: `fds` is an exclusively borrowed slice of `repr(C)`
        // structs laid out as `struct pollfd`; pointer and length
        // describe exactly that slice, which outlives the call, and the
        // kernel writes nothing but the `revents` fields inside it. An
        // fd that is closed or was never open is answered with
        // an error event (`POLLNVAL`), not undefined behaviour.
        let n = unsafe { sys_poll(fds.as_mut_ptr(), fds.len() as NfdsT, ms) };
        if n >= 0 {
            return Ok(n as usize);
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

/// Lets any thread interrupt one thread's [`poll`]: a non-blocking
/// socket pair whose read end sits in the poll set. Wakes are coalesced
/// behind a flag, so N wakes between two waits cost one `write(2)` and
/// show up as one readable event.
pub struct WakeFd {
    rx: UnixStream,
    tx: UnixStream,
    pending: AtomicBool,
}

impl WakeFd {
    /// Opens the socket pair.
    pub fn new() -> io::Result<WakeFd> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(WakeFd {
            rx,
            tx,
            pending: AtomicBool::new(false),
        })
    }

    /// The entry to put in the poll set.
    pub fn poll_fd(&self) -> PollFd {
        PollFd::new(self.rx.as_raw_fd(), POLLIN)
    }

    /// Makes the poll set readable. Everything the woken thread should
    /// find must be published *before* this call.
    pub fn wake(&self) {
        if !self.pending.swap(true, Ordering::SeqCst) {
            // One byte per armed flag, so the pair's buffer cannot fill.
            let _ = (&self.tx).write(&[1]);
        }
    }

    /// Called by the polling thread once its entry reads [`POLLIN`],
    /// *before* it looks at the state wakers publish: empties the
    /// socket, then re-arms the flag. A wake that finds the flag still
    /// set in between writes nothing — and needs nothing, because the
    /// caller has yet to look.
    pub fn drain(&self) {
        let mut buf = [0u8; 16];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n == buf.len()) {}
        self.pending.swap(false, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The peer hung up.
    const POLLHUP: i16 = 0x010;

    fn ready(fd: &UnixStream, events: i16, timeout_ms: u64) -> i16 {
        let mut fds = [PollFd::new(fd.as_raw_fd(), events)];
        poll(&mut fds, Some(Duration::from_millis(timeout_ms))).unwrap();
        fds[0].revents()
    }

    #[test]
    fn readable_and_writable_readiness_on_a_socketpair() {
        let (a, b) = UnixStream::pair().unwrap();
        assert_eq!(ready(&a, POLLIN, 0), 0, "nothing written yet");
        assert_eq!(ready(&a, POLLOUT, 0), POLLOUT, "empty buffer is writable");
        (&b).write_all(b"x").unwrap();
        assert_eq!(ready(&a, POLLIN | POLLOUT, 1000), POLLIN | POLLOUT);
        // Level-triggered: still readable until the byte is taken.
        assert_eq!(ready(&a, POLLIN, 0), POLLIN);
        let mut byte = [0u8; 1];
        (&a).read_exact(&mut byte).unwrap();
        assert_eq!(ready(&a, POLLIN, 0), 0);
        // A full send buffer is not writable.
        a.set_nonblocking(true).unwrap();
        while (&a).write(&[0u8; 4096]).is_ok() {}
        assert_eq!(ready(&a, POLLOUT, 0), 0);
    }

    #[test]
    fn timeout_expires_within_tolerance_and_never_early() {
        let (a, _b) = UnixStream::pair().unwrap();
        for ms in [0u64, 20, 75] {
            let want = Duration::from_millis(ms) + Duration::from_micros(300);
            let t0 = Instant::now();
            let mut fds = [PollFd::new(a.as_raw_fd(), POLLIN)];
            assert_eq!(poll(&mut fds, Some(want)).unwrap(), 0);
            let took = t0.elapsed();
            assert!(took >= want, "woke early: {took:?} < {want:?}");
            assert!(
                took < want + Duration::from_millis(250),
                "woke late: {took:?}"
            );
        }
    }

    #[test]
    fn peer_close_reports_hangup_and_negative_fds_are_skipped() {
        let (a, b) = UnixStream::pair().unwrap();
        drop(b);
        // Reported although only POLLOUT was asked for.
        assert_ne!(ready(&a, POLLOUT, 1000) & POLLHUP, 0);
        // Reading surfaces the close as EOF, which POLLIN announces.
        assert_ne!(ready(&a, POLLIN, 1000) & POLLIN, 0);
        let mut fds = [PollFd::new(-1, POLLIN), PollFd::new(-1, 0)];
        assert_eq!(poll(&mut fds, Some(Duration::ZERO)).unwrap(), 0);
        assert_eq!(fds[0].revents(), 0);
    }

    #[test]
    fn many_wakes_coalesce_into_one_readable_event() {
        let w = WakeFd::new().unwrap();
        let mut fds = [w.poll_fd()];
        assert_eq!(poll(&mut fds, Some(Duration::ZERO)).unwrap(), 0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| (0..250).for_each(|_| w.wake()));
            }
        });
        // 1000 wakes: one readable event carrying exactly one byte.
        assert_eq!(poll(&mut fds, None).unwrap(), 1);
        assert_eq!(fds[0].revents(), POLLIN);
        let mut buf = [0u8; 16];
        assert_eq!((&w.rx).read(&mut buf).unwrap(), 1);
        w.wake(); // Flag still set: coalesced into the byte just taken.
        assert_eq!(poll(&mut fds, Some(Duration::ZERO)).unwrap(), 0);
        // Drained: quiet again, and the next wake gets through.
        w.drain();
        assert_eq!(poll(&mut fds, Some(Duration::ZERO)).unwrap(), 0);
        w.wake();
        assert_eq!(poll(&mut fds, Some(Duration::from_secs(1))).unwrap(), 1);
        w.drain();
        assert_eq!(poll(&mut fds, Some(Duration::ZERO)).unwrap(), 0);
    }

    #[test]
    fn wake_from_another_thread_ends_an_untimed_wait() {
        let w = WakeFd::new().unwrap();
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(30));
                w.wake();
            });
            assert_eq!(poll(&mut [w.poll_fd()], None).unwrap(), 1);
        });
    }

    #[test]
    fn eintr_is_retried_with_the_time_that_is_left() {
        use std::sync::atomic::AtomicUsize;
        const SIGUSR1: c_int = 10;
        static HITS: AtomicUsize = AtomicUsize::new(0);
        extern "C" fn on_usr1(_: c_int) {
            HITS.fetch_add(1, Ordering::Relaxed);
        }
        extern "C" {
            fn signal(signum: c_int, handler: extern "C" fn(c_int)) -> usize;
            fn pthread_self() -> usize;
            fn pthread_kill(thread: usize, sig: c_int) -> c_int;
        }
        // SAFETY: the handler only bumps an atomic (async-signal-safe);
        // `pthread_self` has no preconditions.
        let me = unsafe {
            signal(SIGUSR1, on_usr1);
            pthread_self()
        };
        let (a, _b) = UnixStream::pair().unwrap();
        let want = Duration::from_millis(300);
        let t0 = Instant::now();
        let n = std::thread::scope(|s| {
            s.spawn(move || {
                for _ in 0..3 {
                    std::thread::sleep(Duration::from_millis(40));
                    // SAFETY: `me` names the test thread, which cannot
                    // exit before this scope joins.
                    assert_eq!(unsafe { pthread_kill(me, SIGUSR1) }, 0);
                }
            });
            poll(&mut [PollFd::new(a.as_raw_fd(), POLLIN)], Some(want))
        });
        // poll(2) is never restarted by the kernel, whatever SA_RESTART
        // says: without the retry loop this is Err(Interrupted) at 40 ms.
        assert_eq!(n.unwrap(), 0);
        assert!(t0.elapsed() >= want);
        assert_eq!(HITS.load(Ordering::Relaxed), 3);
    }
}
