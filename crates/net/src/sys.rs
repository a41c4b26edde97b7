//! Hand-rolled Linux syscall bindings for the reactor: `epoll(7)`,
//! `eventfd(2)` and `setrlimit(2)`, declared directly against the C
//! runtime the way the repo hand-rolled its RNG, pool and hasher — no
//! `libc` crate, no build script. Every symbol used here is exported by
//! glibc/musl, which Rust's `std` already links on Linux.
//!
//! Only compiled on Linux; the portable [`crate::poller`](mod@crate::poller) fallback uses
//! `poll(2)`, declared in the same spirit below under `cfg(unix)`.

#![allow(non_camel_case_types)]
// The constants and thin syscall shims below mirror the C API 1:1; the
// module doc covers them, per-item docs would just repeat `man 7 epoll`.
#![allow(missing_docs)]

use std::io;

pub type c_int = i32;

/// One epoll readiness record. The kernel ABI packs this struct on
/// x86-64 (`EPOLL_PACKED` in the kernel headers), so the Rust mirror
/// must too or `epoll_wait` would scribble past field boundaries.
#[cfg(target_arch = "x86_64")]
#[repr(C, packed)]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    pub events: u32,
    pub u64: u64,
}

#[cfg(not(target_arch = "x86_64"))]
#[repr(C)]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    pub events: u32,
    pub u64: u64,
}

pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
pub const EPOLLRDHUP: u32 = 0x2000;

pub const EPOLL_CTL_ADD: c_int = 1;
pub const EPOLL_CTL_DEL: c_int = 2;
pub const EPOLL_CTL_MOD: c_int = 3;
pub const EPOLL_CLOEXEC: c_int = 0x80000;

pub const EFD_CLOEXEC: c_int = 0x80000;
pub const EFD_NONBLOCK: c_int = 0x800;

#[cfg(target_os = "linux")]
extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: u32, flags: c_int) -> c_int;
}

#[cfg(unix)]
extern "C" {
    fn close(fd: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut u8, count: usize) -> isize;
    fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
    fn poll(fds: *mut PollFd, nfds: u64, timeout: c_int) -> c_int;
    fn getrlimit(resource: c_int, rlim: *mut Rlimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const Rlimit) -> c_int;
}

/// `struct pollfd` for the portable fallback poller.
#[repr(C)]
#[derive(Clone, Copy)]
pub struct PollFd {
    pub fd: c_int,
    pub events: i16,
    pub revents: i16,
}

pub const POLLIN: i16 = 0x001;
pub const POLLOUT: i16 = 0x004;
pub const POLLERR: i16 = 0x008;
pub const POLLHUP: i16 = 0x010;

#[repr(C)]
#[derive(Clone, Copy)]
struct Rlimit {
    cur: u64,
    max: u64,
}

const RLIMIT_NOFILE: c_int = 7;

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// RAII wrapper closing a raw descriptor on drop (epoll instance,
/// eventfd). Sockets stay owned by their `std` types.
pub struct OwnedRawFd(pub c_int);

impl Drop for OwnedRawFd {
    fn drop(&mut self) {
        unsafe {
            close(self.0);
        }
    }
}

#[cfg(target_os = "linux")]
pub fn sys_epoll_create() -> io::Result<OwnedRawFd> {
    let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
    Ok(OwnedRawFd(fd))
}

#[cfg(target_os = "linux")]
pub fn sys_epoll_ctl(epfd: c_int, op: c_int, fd: c_int, events: u32, data: u64) -> io::Result<()> {
    let mut ev = EpollEvent { events, u64: data };
    cvt(unsafe { epoll_ctl(epfd, op, fd, &mut ev) }).map(|_| ())
}

#[cfg(target_os = "linux")]
pub fn sys_epoll_wait(
    epfd: c_int,
    events: &mut [EpollEvent],
    timeout_ms: c_int,
) -> io::Result<usize> {
    let n =
        cvt(unsafe { epoll_wait(epfd, events.as_mut_ptr(), events.len() as c_int, timeout_ms) })?;
    Ok(n as usize)
}

#[cfg(target_os = "linux")]
pub fn sys_eventfd() -> io::Result<OwnedRawFd> {
    let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
    Ok(OwnedRawFd(fd))
}

/// Non-blocking read of the full 8-byte eventfd counter (drains it).
pub fn sys_drain_eventfd(fd: c_int) {
    let mut buf = [0u8; 8];
    unsafe {
        let _ = read(fd, buf.as_mut_ptr(), 8);
    }
}

/// Add 1 to an eventfd counter; wakes any poller watching it. Writes to
/// an eventfd are async-signal-safe and never block below `u64::MAX`.
pub fn sys_signal_eventfd(fd: c_int) -> io::Result<()> {
    let one = 1u64.to_ne_bytes();
    let n = unsafe { write(fd, one.as_ptr(), 8) };
    if n == 8 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

pub fn sys_poll(fds: &mut [PollFd], timeout_ms: c_int) -> io::Result<usize> {
    let n = cvt(unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) })?;
    Ok(n as usize)
}

// ---------------------------------------------------------------------
// Termination signals (`signal(2)`), declared in the same no-`libc`
// spirit. The only work a handler may do is async-signal-safe; writing
// to an eventfd is (atomics too), so the handler just bumps a
// process-global eventfd that a normal watcher thread polls — the
// self-pipe trick with one fd.

pub const SIGINT: c_int = 2;
pub const SIGTERM: c_int = 15;

/// `SIG_ERR` — `signal(2)`'s failure sentinel (`(void (*)(int)) -1`).
const SIG_ERR: usize = usize::MAX;

#[cfg(unix)]
extern "C" {
    fn signal(signum: c_int, handler: usize) -> usize;
}

/// Install `handler` for `signum` via `signal(2)`. On Linux glibc/musl
/// this is the BSD semantic (the handler stays installed and syscalls
/// restart), which is all the graceful-shutdown path needs.
pub fn sys_signal(signum: c_int, handler: extern "C" fn(c_int)) -> io::Result<()> {
    let prev = unsafe { signal(signum, handler as usize) };
    if prev == SIG_ERR {
        Err(io::Error::last_os_error())
    } else {
        Ok(())
    }
}

#[cfg(target_os = "linux")]
static TERM_EVENTFD: std::sync::atomic::AtomicI32 = std::sync::atomic::AtomicI32::new(-1);

#[cfg(target_os = "linux")]
extern "C" fn term_handler(_signum: c_int) {
    // Async-signal-safe: one atomic load + one write(2).
    let fd = TERM_EVENTFD.load(std::sync::atomic::Ordering::Relaxed);
    if fd >= 0 {
        let _ = sys_signal_eventfd(fd);
    }
}

/// Bind `SIGTERM` and `SIGINT` to an eventfd: the returned descriptor
/// becomes readable (`POLLIN` via [`sys_poll`]) once either signal
/// arrives, so a watcher thread can run an orderly shutdown — seal the
/// WAL tail, drain connections — instead of the process dying
/// mid-write. Call once; the eventfd must outlive the process's use of
/// the handlers (keep the guard alive for the program's lifetime).
#[cfg(target_os = "linux")]
pub fn sys_termination_eventfd() -> io::Result<OwnedRawFd> {
    let efd = sys_eventfd()?;
    TERM_EVENTFD.store(efd.0, std::sync::atomic::Ordering::SeqCst);
    sys_signal(SIGTERM, term_handler)?;
    sys_signal(SIGINT, term_handler)?;
    Ok(efd)
}

/// Raise the soft `RLIMIT_NOFILE` to at least `want` descriptors (the
/// hard limit too when the process may — root can). Returns the soft
/// limit in effect afterwards; never errors harder than "left as-is",
/// so callers clamp their fan-in to the returned value.
pub fn raise_nofile_limit(want: u64) -> u64 {
    let mut lim = Rlimit { cur: 0, max: 0 };
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
        return 1024;
    }
    if lim.cur >= want {
        return lim.cur;
    }
    // First try within the current hard limit, then try raising the
    // hard limit too (succeeds when privileged).
    let tries = [
        Rlimit {
            cur: want.min(lim.max),
            max: lim.max,
        },
        Rlimit {
            cur: want,
            max: want.max(lim.max),
        },
    ];
    let mut best = lim.cur;
    for t in tries {
        if unsafe { setrlimit(RLIMIT_NOFILE, &t) } == 0 {
            best = best.max(t.cur);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nofile_limit_reports_something_sane() {
        let got = raise_nofile_limit(64);
        assert!(got >= 64, "soft NOFILE limit {got} below floor");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn termination_eventfd_wakes_on_sigterm() {
        extern "C" {
            fn raise(sig: c_int) -> c_int;
        }
        let efd = sys_termination_eventfd().unwrap();
        // The installed handler absorbs the signal and bumps the
        // eventfd — the process (this test runner) lives on.
        unsafe { raise(SIGTERM) };
        let mut fds = [PollFd {
            fd: efd.0,
            events: POLLIN,
            revents: 0,
        }];
        let n = sys_poll(&mut fds, 2000).unwrap();
        assert_eq!(n, 1, "eventfd not readable after SIGTERM");
        sys_drain_eventfd(efd.0);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn eventfd_signals_and_drains() {
        let efd = sys_eventfd().unwrap();
        sys_signal_eventfd(efd.0).unwrap();
        sys_signal_eventfd(efd.0).unwrap();
        sys_drain_eventfd(efd.0);
        // Drained: a poll on the fd reports no readable data.
        let mut fds = [PollFd {
            fd: efd.0,
            events: POLLIN,
            revents: 0,
        }];
        let n = sys_poll(&mut fds, 0).unwrap();
        assert_eq!(n, 0, "eventfd still readable after drain");
    }
}
