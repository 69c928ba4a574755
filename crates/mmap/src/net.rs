//! Std-only raw-syscall networking for thread-per-core serving:
//! `SO_REUSEPORT` listeners, an `epoll(7)` readiness poller, an
//! `eventfd(2)` waker, and best-effort CPU pinning.
//!
//! The workspace carries no external dependencies, so — exactly like the
//! `mmap(2)` path in this crate — the handful of calls std does not
//! expose (`setsockopt(SO_REUSEPORT)`, `epoll_*`, `eventfd2` with its
//! `read`/`write`, `sched_setaffinity`) are issued as raw syscalls on the
//! platforms we support. Every entry point degrades gracefully: on other
//! platforms (or kernel refusal) constructors return `None`/`false` and
//! the caller falls back to a portable std path, so no caller needs a
//! `cfg` of its own.
//!
//! # Safety argument (scoped to this module)
//!
//! * **File descriptors.** Sockets, epoll instances and eventfds are
//!   created by this module, checked for error returns, and either handed
//!   to owning std types ([`std::net::TcpListener`] via `FromRawFd`) or
//!   closed in `Drop` ([`Poller`], [`Waker`]). No descriptor is used after
//!   transfer or close: a `Waker` is woken and drained only through
//!   `&self`, so every `read`/`write` on its eventfd happens while the
//!   owner is alive, before `Drop` closes it.
//! * **Pointers passed to the kernel.** Every pointer argument
//!   (`sockaddr_in`, epoll event buffers, affinity masks, the 8-byte
//!   eventfd counter) refers to a live, correctly sized stack or heap
//!   object for the duration of the call; the kernel does not retain
//!   them.
//! * **Event buffer initialization.** `epoll_pwait` writes up to
//!   `maxevents` entries; only the prefix the kernel reports as written
//!   is read back, and the buffer is zero-initialized regardless.

use std::net::TcpListener;

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The caller-chosen token registered with the file descriptor.
    pub token: u64,
    /// The descriptor is readable (or has a pending error/hang-up,
    /// which a subsequent read surfaces).
    pub readable: bool,
    /// The descriptor is writable.
    pub writable: bool,
}

/// Creates a loopback TCP listener on `port` with `SO_REUSEPORT` set
/// before bind, so several listeners can share one port and the kernel
/// load-balances accepts across them. Returns `None` where raw sockets
/// are unsupported or any step fails — the caller falls back to a
/// shared std listener.
#[must_use]
pub fn reuseport_listener(port: u16) -> Option<TcpListener> {
    sys::reuseport_listener(port)
}

/// Best-effort pins the calling thread to CPU `core` (modulo the mask
/// width). Returns whether the kernel accepted the affinity; `false` is
/// never fatal — an unpinned loop is merely at the mercy of the
/// scheduler.
#[must_use]
pub fn pin_to_cpu(core: usize) -> bool {
    sys::pin_to_cpu(core)
}

/// A level-triggered `epoll(7)` readiness poller.
///
/// [`Poller::new`] returns `None` where epoll is unavailable; callers
/// fall back to a scan loop over non-blocking descriptors. All
/// registration methods report failure with `false` rather than
/// panicking — a failed registration means the caller should treat the
/// descriptor as always-ready (or drop it), never crash the loop.
#[derive(Debug)]
pub struct Poller {
    #[cfg_attr(
        not(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        )),
        allow(dead_code)
    )]
    epfd: i32,
}

impl Poller {
    /// Creates an epoll instance, or `None` where unsupported.
    #[must_use]
    pub fn new() -> Option<Poller> {
        sys::poller_new()
    }

    /// Registers `fd` with `token`, watching for readability and — when
    /// `writable` — writability.
    pub fn add(&self, fd: i32, token: u64, writable: bool) -> bool {
        sys::poller_ctl(self.epfd, sys::EPOLL_CTL_ADD, fd, token, writable)
    }

    /// Re-arms `fd` with a (possibly new) token and interest set.
    pub fn modify(&self, fd: i32, token: u64, writable: bool) -> bool {
        sys::poller_ctl(self.epfd, sys::EPOLL_CTL_MOD, fd, token, writable)
    }

    /// Deregisters `fd`.
    pub fn remove(&self, fd: i32) -> bool {
        sys::poller_ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, 0, false)
    }

    /// Waits up to `timeout_ms` for readiness, appending reports to
    /// `events` (cleared first). Returns `false` only on a non-EINTR
    /// wait failure.
    pub fn wait(&self, events: &mut Vec<Event>, timeout_ms: i32) -> bool {
        sys::poller_wait(self.epfd, events, timeout_ms)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        sys::close_fd(self.epfd);
    }
}

/// An `eventfd(2)` wake-up counter for a [`Poller`].
///
/// Any thread may [`wake`](Self::wake) it; registered with a poller for
/// readability, it reports readable until [`drain`](Self::drain) resets
/// the count. Under level-triggered epoll a wake therefore stays pending
/// across any number of waits, and several wakes before one drain give
/// one readiness. [`Waker::new`] returns `None` where eventfd is
/// unavailable; callers fall back to polling.
#[derive(Debug)]
pub struct Waker {
    #[cfg_attr(
        not(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        )),
        allow(dead_code)
    )]
    fd: i32,
}

impl Waker {
    /// Creates a non-blocking, close-on-exec eventfd, or `None` where
    /// unsupported.
    #[must_use]
    pub fn new() -> Option<Waker> {
        sys::waker_new()
    }

    /// The descriptor to register with [`Poller::add`] (readable
    /// interest).
    #[must_use]
    pub fn fd(&self) -> i32 {
        self.fd
    }

    /// Adds one to the counter, making the descriptor readable. Never
    /// blocks: a write refused because the counter is full loses nothing,
    /// since a full counter is readable already.
    pub fn wake(&self) {
        sys::waker_wake(self.fd);
    }

    /// Resets the counter and returns the wakes it held (0 if none).
    pub fn drain(&self) -> u64 {
        sys::waker_drain(self.fd)
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        sys::close_fd(self.fd);
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    use super::{Event, Poller, Waker};
    use std::net::TcpListener;
    use std::os::unix::io::FromRawFd;

    use crate::sys::syscall6;

    const AF_INET: usize = 2;
    const SOCK_STREAM: usize = 1;
    const SOCK_CLOEXEC: usize = 0x80000;
    const SOL_SOCKET: usize = 1;
    const SO_REUSEADDR: usize = 2;
    const SO_REUSEPORT: usize = 15;
    const EPOLL_CLOEXEC: usize = 0x80000;
    pub(super) const EPOLL_CTL_ADD: usize = 1;
    pub(super) const EPOLL_CTL_DEL: usize = 2;
    pub(super) const EPOLL_CTL_MOD: usize = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EFD_NONBLOCK: usize = 0x800;
    const EFD_CLOEXEC: usize = 0x80000;
    const EINTR: isize = -4;
    const BACKLOG: usize = 1024;
    const MAX_EVENTS: usize = 64;

    #[cfg(target_arch = "x86_64")]
    mod nr {
        pub const READ: usize = 0;
        pub const WRITE: usize = 1;
        pub const CLOSE: usize = 3;
        pub const SOCKET: usize = 41;
        pub const BIND: usize = 49;
        pub const LISTEN: usize = 50;
        pub const SETSOCKOPT: usize = 54;
        pub const SCHED_SETAFFINITY: usize = 203;
        pub const EPOLL_CTL: usize = 233;
        pub const EPOLL_PWAIT: usize = 281;
        pub const EVENTFD2: usize = 290;
        pub const EPOLL_CREATE1: usize = 291;
    }
    #[cfg(target_arch = "aarch64")]
    mod nr {
        pub const EVENTFD2: usize = 19;
        pub const EPOLL_CREATE1: usize = 20;
        pub const EPOLL_CTL: usize = 21;
        pub const EPOLL_PWAIT: usize = 22;
        pub const CLOSE: usize = 57;
        pub const READ: usize = 63;
        pub const WRITE: usize = 64;
        pub const SCHED_SETAFFINITY: usize = 122;
        pub const SOCKET: usize = 198;
        pub const BIND: usize = 200;
        pub const LISTEN: usize = 201;
        pub const SETSOCKOPT: usize = 208;
    }

    /// `struct epoll_event`: packed on x86_64, naturally aligned (with
    /// explicit padding) on aarch64 — the kernel ABI differs per arch.
    #[cfg(target_arch = "x86_64")]
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }
    #[cfg(target_arch = "aarch64")]
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        _pad: u32,
        data: u64,
    }

    #[cfg(target_arch = "x86_64")]
    fn epoll_event(events: u32, data: u64) -> EpollEvent {
        EpollEvent { events, data }
    }
    #[cfg(target_arch = "aarch64")]
    fn epoll_event(events: u32, data: u64) -> EpollEvent {
        EpollEvent {
            events,
            _pad: 0,
            data,
        }
    }

    /// IPv4 `struct sockaddr_in` (16 bytes): family, big-endian port,
    /// big-endian address, zero padding.
    #[repr(C)]
    struct SockAddrIn {
        family: u16,
        port_be: u16,
        addr_be: u32,
        zero: [u8; 8],
    }

    fn failed(ret: isize) -> bool {
        (-4095..=-1).contains(&ret)
    }

    pub(super) fn close_fd(fd: i32) {
        // SAFETY: closing a descriptor this module created and owns.
        unsafe {
            syscall6(nr::CLOSE, fd as usize, 0, 0, 0, 0, 0);
        }
    }

    pub(super) fn reuseport_listener(port: u16) -> Option<TcpListener> {
        // SAFETY: plain socket creation; the fd is checked below and
        // either transferred to an owning TcpListener or closed.
        let fd = unsafe { syscall6(nr::SOCKET, AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0, 0, 0, 0) };
        if failed(fd) {
            return None;
        }
        let fd = fd as usize;
        let cleanup = |fd: usize| {
            close_fd(fd as i32);
            None
        };
        let one: u32 = 1;
        for opt in [SO_REUSEADDR, SO_REUSEPORT] {
            // SAFETY: `&one` is a live 4-byte value for the duration of
            // the call; the kernel copies it.
            let ret = unsafe {
                syscall6(
                    nr::SETSOCKOPT,
                    fd,
                    SOL_SOCKET,
                    opt,
                    std::ptr::from_ref(&one) as usize,
                    4,
                    0,
                )
            };
            if failed(ret) {
                return cleanup(fd);
            }
        }
        let addr = SockAddrIn {
            family: AF_INET as u16,
            port_be: port.to_be(),
            addr_be: u32::from(std::net::Ipv4Addr::LOCALHOST).to_be(),
            zero: [0; 8],
        };
        // SAFETY: `addr` is a live, correctly sized sockaddr_in; the
        // kernel copies it during the call.
        let ret = unsafe {
            syscall6(
                nr::BIND,
                fd,
                std::ptr::from_ref(&addr) as usize,
                std::mem::size_of::<SockAddrIn>(),
                0,
                0,
                0,
            )
        };
        if failed(ret) {
            return cleanup(fd);
        }
        // SAFETY: listen takes no pointers.
        let ret = unsafe { syscall6(nr::LISTEN, fd, BACKLOG, 0, 0, 0, 0) };
        if failed(ret) {
            return cleanup(fd);
        }
        // SAFETY: `fd` is a freshly created, successfully bound+listening
        // socket owned by nobody else; ownership transfers here.
        Some(unsafe { TcpListener::from_raw_fd(fd as i32) })
    }

    pub(super) fn pin_to_cpu(core: usize) -> bool {
        // 1024-CPU mask, the kernel's customary sizing.
        let mut mask = [0u64; 16];
        let bit = core % (mask.len() * 64);
        mask[bit / 64] = 1u64 << (bit % 64);
        // SAFETY: pid 0 = calling thread; the mask is a live buffer of
        // the stated size, copied by the kernel.
        let ret = unsafe {
            syscall6(
                nr::SCHED_SETAFFINITY,
                0,
                std::mem::size_of_val(&mask),
                mask.as_ptr() as usize,
                0,
                0,
                0,
            )
        };
        !failed(ret)
    }

    pub(super) fn poller_new() -> Option<Poller> {
        // SAFETY: epoll_create1 takes no pointers; the fd is checked.
        let ret = unsafe { syscall6(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) };
        if failed(ret) {
            return None;
        }
        Some(Poller { epfd: ret as i32 })
    }

    pub(super) fn poller_ctl(epfd: i32, op: usize, fd: i32, token: u64, writable: bool) -> bool {
        let interest = EPOLLIN | if writable { EPOLLOUT } else { 0 };
        let ev = epoll_event(interest, token);
        let ev_ptr = if op == EPOLL_CTL_DEL {
            0
        } else {
            std::ptr::from_ref(&ev) as usize
        };
        // SAFETY: `ev` is live for the call (the kernel copies it);
        // DEL ignores the event pointer.
        let ret = unsafe { syscall6(nr::EPOLL_CTL, epfd as usize, op, fd as usize, ev_ptr, 0, 0) };
        !failed(ret)
    }

    pub(super) fn poller_wait(epfd: i32, events: &mut Vec<Event>, timeout_ms: i32) -> bool {
        events.clear();
        let mut buf = [epoll_event(0, 0); MAX_EVENTS];
        // SAFETY: `buf` is a live array of MAX_EVENTS kernel-ABI events;
        // the kernel writes at most MAX_EVENTS entries; a NULL sigmask
        // makes this plain epoll_wait (aarch64 has no non-pwait call).
        let ret = unsafe {
            syscall6(
                nr::EPOLL_PWAIT,
                epfd as usize,
                buf.as_mut_ptr() as usize,
                MAX_EVENTS,
                timeout_ms as usize,
                0,
                0,
            )
        };
        if ret == EINTR {
            return true;
        }
        if failed(ret) {
            return false;
        }
        for ev in buf.iter().take(ret as usize) {
            let bits = ev.events;
            events.push(Event {
                token: ev.data,
                // Errors and hang-ups surface as readability so the
                // next read observes them.
                readable: bits & (EPOLLIN | EPOLLERR | EPOLLHUP) != 0,
                writable: bits & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
            });
        }
        true
    }

    pub(super) fn waker_new() -> Option<Waker> {
        // SAFETY: eventfd2 takes no pointers; the fd is checked.
        let ret = unsafe { syscall6(nr::EVENTFD2, 0, EFD_CLOEXEC | EFD_NONBLOCK, 0, 0, 0, 0) };
        if failed(ret) {
            return None;
        }
        Some(Waker { fd: ret as i32 })
    }

    pub(super) fn waker_wake(fd: i32) {
        let one: u64 = 1;
        // SAFETY: `&one` is a live 8-byte value for the duration of the
        // call; the kernel copies it. The only failure on a non-blocking
        // eventfd is EAGAIN at a full counter, which is readable anyway.
        unsafe {
            syscall6(
                nr::WRITE,
                fd as usize,
                std::ptr::from_ref(&one) as usize,
                8,
                0,
                0,
                0,
            );
        }
    }

    pub(super) fn waker_drain(fd: i32) -> u64 {
        let mut count: u64 = 0;
        // SAFETY: `count` is a live, writable 8-byte value for the
        // duration of the call; the kernel writes at most 8 bytes into
        // it. A zero counter fails with EAGAIN and writes nothing.
        let ret = unsafe {
            syscall6(
                nr::READ,
                fd as usize,
                std::ptr::from_mut(&mut count) as usize,
                8,
                0,
                0,
                0,
            )
        };
        if failed(ret) {
            0
        } else {
            count
        }
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod sys {
    //! Portable stubs: every constructor declines, every operation
    //! no-ops, so callers take their std fallback paths.
    use super::{Event, Poller, Waker};
    use std::net::TcpListener;

    pub(super) const EPOLL_CTL_ADD: usize = 1;
    pub(super) const EPOLL_CTL_DEL: usize = 2;
    pub(super) const EPOLL_CTL_MOD: usize = 3;

    pub(super) fn close_fd(_fd: i32) {}

    pub(super) fn reuseport_listener(_port: u16) -> Option<TcpListener> {
        None
    }

    pub(super) fn pin_to_cpu(_core: usize) -> bool {
        false
    }

    pub(super) fn poller_new() -> Option<Poller> {
        None
    }

    pub(super) fn poller_ctl(
        _epfd: i32,
        _op: usize,
        _fd: i32,
        _token: u64,
        _writable: bool,
    ) -> bool {
        false
    }

    pub(super) fn poller_wait(_epfd: i32, _events: &mut Vec<Event>, _timeout_ms: i32) -> bool {
        false
    }

    pub(super) fn waker_new() -> Option<Waker> {
        None
    }

    pub(super) fn waker_wake(_fd: i32) {}

    pub(super) fn waker_drain(_fd: i32) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::os::fd::AsRawFd;

    #[test]
    fn reuseport_listeners_share_a_port_and_accept() {
        let Some(a) = reuseport_listener(0) else {
            return; // platform without raw-socket support
        };
        let port = a.local_addr().unwrap().port();
        let b = reuseport_listener(port).expect("second listener on the same port");
        assert_eq!(b.local_addr().unwrap().port(), port);
        // Both listeners are real: connections land on one of them, and
        // enough connections exercise the kernel's balancing without
        // this test depending on *how* it balances.
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        let mut accepted = 0;
        let mut streams = Vec::new();
        for _ in 0..8 {
            streams.push(TcpStream::connect(("127.0.0.1", port)).unwrap());
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while accepted < streams.len() && std::time::Instant::now() < deadline {
            for l in [&a, &b] {
                while l.accept().is_ok() {
                    accepted += 1;
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(accepted, streams.len());
    }

    #[test]
    fn poller_reports_read_and_write_readiness() {
        let Some(poller) = Poller::new() else {
            return; // platform without epoll
        };
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        assert!(poller.add(server.as_raw_fd(), 7, true));
        let mut events = Vec::new();
        // A fresh socket with room in its send buffer is writable.
        assert!(poller.wait(&mut events, 1000));
        let ev = events.iter().find(|e| e.token == 7).expect("registered fd");
        assert!(ev.writable && !ev.readable, "{ev:?}");
        // Bytes from the peer flip it readable.
        (&client).write_all(b"ping").unwrap();
        assert!(poller.wait(&mut events, 1000));
        let ev = events.iter().find(|e| e.token == 7).expect("registered fd");
        assert!(ev.readable, "{ev:?}");
        let mut buf = [0u8; 4];
        (&server).read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        // Dropping write interest stops the writable reports.
        assert!(poller.modify(server.as_raw_fd(), 7, false));
        assert!(poller.wait(&mut events, 50));
        assert!(events.iter().all(|e| !e.writable), "{events:?}");
        assert!(poller.remove(server.as_raw_fd()));
        assert!(poller.wait(&mut events, 10));
        assert!(events.is_empty(), "{events:?}");
    }

    #[test]
    fn waker_exists_exactly_where_the_raw_syscalls_do() {
        let supported = cfg!(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ));
        assert_eq!(Waker::new().is_some(), supported);
    }

    #[test]
    fn a_registered_waker_is_readable_after_wake_until_drained() {
        let (Some(poller), Some(waker)) = (Poller::new(), Waker::new()) else {
            return; // platform without epoll or eventfd
        };
        assert!(poller.add(waker.fd(), 9, false));
        let mut events = Vec::new();
        assert!(poller.wait(&mut events, 0));
        assert!(events.is_empty(), "a fresh waker is quiet: {events:?}");
        assert_eq!(waker.drain(), 0, "nothing to drain");
        let woken = [Event {
            token: 9,
            readable: true,
            writable: false,
        }];
        // A wake from another thread makes the waker readable...
        std::thread::scope(|s| {
            s.spawn(|| waker.wake());
        });
        assert!(poller.wait(&mut events, 1000));
        assert_eq!(events, woken);
        // ...and, level-triggered, it stays readable: several wakes give
        // one readiness per wait, never one per wake.
        waker.wake();
        waker.wake();
        for _ in 0..2 {
            assert!(poller.wait(&mut events, 1000));
            assert_eq!(events, woken);
        }
        // Draining returns every wake so far and clears the readiness.
        assert_eq!(waker.drain(), 3);
        assert!(poller.wait(&mut events, 0));
        assert!(events.is_empty(), "drained waker still ready: {events:?}");
        assert_eq!(waker.drain(), 0);
    }

    #[test]
    fn pinning_is_best_effort_and_never_panics() {
        // Core 0 always exists; the call may still be refused in
        // restricted sandboxes — both outcomes are acceptable.
        let _ = pin_to_cpu(0);
        let _ = pin_to_cpu(usize::MAX); // wraps modulo the mask width
    }
}
