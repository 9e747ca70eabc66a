//! The bounded egress buffer of a split association (DESIGN.md §14.2).
//!
//! Every outbound frame of a split link passes through here, and
//! exactly one party at a time is *the write in progress*:
//!
//! * A sender that finds the link idle — nothing queued, nothing being
//!   written — writes its own unit, in place, with a write that does
//!   not wait for a full socket. What the socket did not take goes to
//!   the *front* of the queue and the writer thread finishes it.
//! * A sender that arrives while anything is queued or being written
//!   appends and leaves; the backlog is the next write's batch.
//!
//!   Either way the sender encodes its unit straight into the buffer it
//!   leaves from — the queue's own, or the link's one in-place write
//!   buffer — so a payload is copied once on its way out
//!   ([`Egress::submit`]).
//! * The writer thread empties the queue with one blocking write per
//!   batch. It is the only place that waits on a full socket.
//!
//! So a lone message costs one system call on the sender's own thread
//! and wakes nobody, and a stalled peer blocks its senders at the frame
//! bound (`pending == capacity`), never inside a socket write.
//!
//! lint: hot-path

use crate::tokio_transport::TransportError;
use std::io;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// What the egress needs of a link's write side. The split link's TCP
/// write half in production; a scripted sink in the unit tests.
pub(crate) trait Sink {
    /// Write what the link takes without waiting for the peer: a short
    /// count or `WouldBlock` means it is full.
    fn try_write(&self, buf: &[u8]) -> io::Result<usize>;
    /// Write all of `buf`, waiting for the peer as long as it takes.
    fn write_blocking(&self, buf: &[u8]) -> io::Result<()>;
}

/// A write buffer larger than this is shrunk after its write instead
/// of being kept, so one burst does not pin its peak size. It is also
/// the most an unsplit stream holds back for one write
/// (`SctpStream::send`).
pub(crate) const WIRE_RETAIN: usize = 64 * 1024;

pub(crate) struct Egress<W> {
    q: Mutex<EgressQueue>,
    wake_writer: Condvar,
    wake_senders: Condvar,
    /// Bound on frames not yet on the wire.
    capacity: usize,
    /// Touched only by the write in progress.
    wr: W,
}

#[derive(Default)]
pub(crate) struct EgressQueue {
    /// Length-prefixed frames waiting for the writer thread.
    wire: Vec<u8>,
    /// Where an in-place writer encodes its unit; it takes the buffer
    /// along while it writes and brings it back, so only one exists.
    unit: Vec<u8>,
    /// Frames in `wire`.
    queued: usize,
    /// Frames of the write in progress.
    writing: usize,
    /// The write in progress is a sender's own, not the writer
    /// thread's.
    inline: bool,
    /// Condvar wake-ups are system calls; these say when one is needed.
    writer_parked: bool,
    senders_parked: usize,
    /// Both halves are gone: the writer thread drains and exits.
    closed: bool,
    /// A write failed: nothing queued will ever leave.
    dead: bool,
}

impl<W: Sink> Egress<W> {
    pub(crate) fn new(wr: W, capacity: usize) -> Egress<W> {
        Egress {
            q: Mutex::new(EgressQueue::default()), // lint: allow(hot-path-lock): built once per link
            wake_writer: Condvar::new(),
            wake_senders: Condvar::new(),
            capacity: capacity.max(1),
            wr,
        }
    }

    /// Every update leaves the queue valid, so a poisoned lock (a
    /// sender panicked elsewhere while holding it) is recovered.
    fn queue(&self) -> MutexGuard<'_, EgressQueue> {
        // The queue *is* the serialization point of a link's senders;
        // it is held for a copy, never across a write.
        self.q.lock().unwrap_or_else(PoisonError::into_inner) // lint: allow(hot-path-lock)
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Frames accepted and not yet on the wire.
    pub(crate) fn pending(&self) -> usize {
        let q = self.queue();
        q.queued + q.writing
    }

    /// Reserve room for a unit of `frames` frames and return the queue,
    /// locked. At the bound, `wait` parks the caller until the writer
    /// has made room; without it the answer is [`TransportError::Full`]
    /// and nothing has happened. A unit larger than the whole bound is
    /// admitted once the buffer is empty. A dead link is
    /// [`TransportError::Eof`].
    fn admit(
        &self,
        frames: usize,
        wait: bool,
    ) -> Result<MutexGuard<'_, EgressQueue>, TransportError> {
        let mut q = self.queue();
        loop {
            if q.dead {
                return Err(TransportError::Eof);
            }
            let pending = q.queued + q.writing;
            if pending == 0 || pending + frames <= self.capacity {
                return Ok(q);
            }
            if !wait {
                return Err(TransportError::Full);
            }
            q.senders_parked += 1;
            q = self
                .wake_senders
                .wait(q)
                .unwrap_or_else(PoisonError::into_inner);
            q.senders_parked -= 1;
        }
    }

    /// Admit a unit of up to `frames` frames (as [`Self::admit`]) and
    /// let `fill` encode it into the buffer it leaves from; `fill`
    /// returns how many whole frames it appended. On an idle link the
    /// caller becomes the write in progress and writes them itself;
    /// otherwise they join the queue. The queue stays locked while
    /// `fill` runs, so whatever it numbers reaches the wire in that
    /// order.
    pub(crate) fn submit(
        &self,
        frames: usize,
        wait: bool,
        fill: impl FnOnce(&mut Vec<u8>) -> usize,
    ) -> Result<(), TransportError> {
        let mut q = self.admit(frames, wait)?;
        if q.queued + q.writing > 0 {
            q.queued += fill(&mut q.wire);
            // Behind an in-place write the writer thread could only go
            // back to sleep; that write wakes it when it is done.
            if q.queued > 0 && !q.inline && std::mem::take(&mut q.writer_parked) {
                self.wake_writer.notify_one();
            }
            return Ok(());
        }
        let mut unit = std::mem::take(&mut q.unit);
        let frames = fill(&mut unit);
        if frames == 0 {
            q.unit = unit;
            return Ok(());
        }
        q.writing = frames;
        q.inline = true;
        drop(q);
        let res = self.wr.try_write(&unit);
        let mut q = self.queue();
        q.inline = false;
        let outcome = if q.dead {
            Err(TransportError::Eof)
        } else {
            match res {
                Ok(n) => Ok(n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(0),
                Err(_) => {
                    self.fail_locked(&mut q);
                    Err(TransportError::Eof)
                }
            }
        };
        if let Ok(written) = outcome {
            q.writing = 0;
            if written < unit.len() {
                // The link filled up mid-unit. The rest must leave
                // before anything queued meanwhile, and waiting for
                // room is the writer thread's job. Once per stall, not
                // per push.
                q.wire.splice(..0, unit[written..].iter().copied());
                q.queued += frames;
            }
            if q.queued > 0 && std::mem::take(&mut q.writer_parked) {
                self.wake_writer.notify_one();
            }
            if q.senders_parked > 0 {
                self.wake_senders.notify_all();
            }
        }
        unit.clear();
        unit.shrink_to(WIRE_RETAIN);
        q.unit = unit;
        outcome.map(|_| ())
    }

    /// [`Self::submit`] (waiting at the bound) of frames already
    /// encoded.
    pub(crate) fn push(&self, wire: &[u8], frames: usize) -> Result<(), TransportError> {
        if frames == 0 {
            return Ok(());
        }
        self.submit(frames, true, |unit| {
            unit.extend_from_slice(wire);
            frames
        })
    }

    /// The writer thread: one blocking write per batch, a batch being
    /// everything queued since the last one. Returns once both halves
    /// are gone and the queue is empty, or when the link has failed.
    pub(crate) fn run_writer(&self) {
        let mut batch = Vec::new(); // lint: allow(alloc): once per link, reused for every batch
        let mut q = self.queue();
        loop {
            while q.queued == 0 || q.inline {
                if q.closed || q.dead {
                    return;
                }
                q.writer_parked = true;
                q = self
                    .wake_writer
                    .wait(q)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            std::mem::swap(&mut q.wire, &mut batch);
            q.writing = std::mem::take(&mut q.queued);
            drop(q);
            let res = self.wr.write_blocking(&batch);
            batch.clear();
            batch.shrink_to(WIRE_RETAIN);
            q = self.queue();
            if q.dead {
                return;
            }
            if res.is_err() {
                self.fail_locked(&mut q);
                return;
            }
            q.writing = 0;
            if q.senders_parked > 0 {
                self.wake_senders.notify_all();
            }
        }
    }

    /// Both halves are gone: let the writer thread finish and exit.
    pub(crate) fn close(&self) {
        let mut q = self.queue();
        q.closed = true;
        self.wake_writer.notify_one();
    }

    /// The link is lost: fail current and future senders.
    #[cfg(test)]
    fn fail(&self) {
        self.fail_locked(&mut self.queue());
    }

    fn fail_locked(&self, q: &mut EgressQueue) {
        q.dead = true;
        q.wire.clear();
        q.wire.shrink_to(0);
        q.unit.shrink_to(0);
        q.queued = 0;
        q.writing = 0;
        self.wake_senders.notify_all();
        self.wake_writer.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::sync::Arc;
    use std::time::Duration;

    /// A link whose capacity and pace the test scripts: `try_write`
    /// takes at most `room` bytes (after waiting for `try_gate`, when
    /// the test holds one), `write_blocking` waits for `all_gate`. Every
    /// byte taken is logged in order, and the sink notices two writes
    /// running at once.
    struct Script {
        room: AtomicUsize,
        try_gate: Mutex<Option<Receiver<()>>>,
        all_gate: Mutex<Option<Receiver<()>>>,
        log: Mutex<Vec<u8>>,
        busy: AtomicBool,
        overlapped: AtomicBool,
        fail_try: AtomicBool,
    }

    impl Script {
        fn new(room: usize) -> Script {
            Script {
                room: AtomicUsize::new(room),
                try_gate: Mutex::new(None),
                all_gate: Mutex::new(None),
                log: Mutex::new(Vec::new()),
                busy: AtomicBool::new(false),
                overlapped: AtomicBool::new(false),
                fail_try: AtomicBool::new(false),
            }
        }

        fn gate(slot: &Mutex<Option<Receiver<()>>>) -> Sender<()> {
            let (tx, rx) = channel();
            *slot.lock().unwrap() = Some(rx);
            tx
        }

        fn enter(&self, gate: &Mutex<Option<Receiver<()>>>) {
            if self.busy.swap(true, Ordering::SeqCst) {
                self.overlapped.store(true, Ordering::SeqCst);
            }
            let gate = gate.lock().unwrap().take();
            if let Some(rx) = gate {
                let _ = rx.recv();
            }
        }

        fn log(&self) -> Vec<u8> {
            self.log.lock().unwrap().clone()
        }
    }

    impl Sink for Arc<Script> {
        fn try_write(&self, buf: &[u8]) -> io::Result<usize> {
            self.enter(&self.try_gate);
            let res = if self.fail_try.load(Ordering::SeqCst) {
                Err(io::ErrorKind::BrokenPipe.into())
            } else {
                let n = buf.len().min(self.room.load(Ordering::SeqCst));
                self.room.fetch_sub(n, Ordering::SeqCst);
                self.log.lock().unwrap().extend_from_slice(&buf[..n]);
                if n == 0 {
                    Err(io::ErrorKind::WouldBlock.into())
                } else {
                    Ok(n)
                }
            };
            self.busy.store(false, Ordering::SeqCst);
            res
        }

        fn write_blocking(&self, buf: &[u8]) -> io::Result<()> {
            self.enter(&self.all_gate);
            self.log.lock().unwrap().extend_from_slice(buf);
            self.busy.store(false, Ordering::SeqCst);
            Ok(())
        }
    }

    fn egress(room: usize, capacity: usize) -> (Arc<Script>, Arc<Egress<Arc<Script>>>) {
        let sink = Arc::new(Script::new(room));
        let eg = Arc::new(Egress::new(Arc::clone(&sink), capacity));
        (sink, eg)
    }

    fn wait_until(what: &str, cond: impl Fn() -> bool) {
        for _ in 0..2000 {
            if cond() {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        panic!("timed out waiting until {what}");
    }

    #[test]
    fn an_idle_link_is_written_in_place_and_wakes_nobody() {
        let (sink, eg) = egress(usize::MAX, 8);
        eg.push(b"abc", 1).unwrap();
        eg.push(b"de", 2).unwrap();
        assert_eq!(sink.log(), b"abcde");
        assert_eq!(eg.pending(), 0);
        assert!(eg.queue().wire.is_empty(), "nothing was queued");
    }

    #[test]
    fn a_short_write_leaves_its_remainder_first_in_line() {
        let (sink, eg) = egress(3, 8);
        let open = Script::gate(&sink.all_gate);
        // The link takes "abc" and fills up: "def" is queued, as the
        // whole unit's two frames.
        eg.push(b"abcdef", 2).unwrap();
        assert_eq!(sink.log(), b"abc");
        assert_eq!(eg.pending(), 2);
        // Later units go behind the remainder, not in place.
        eg.push(b"gh", 1).unwrap();
        eg.push(b"i", 1).unwrap();
        assert_eq!(sink.log(), b"abc");
        assert_eq!(eg.pending(), 4);
        let writer = {
            let eg = Arc::clone(&eg);
            std::thread::spawn(move || eg.run_writer())
        };
        open.send(()).unwrap();
        wait_until("the queue drained", || eg.pending() == 0);
        assert_eq!(sink.log(), b"abcdefghi");
        // A link that takes nothing at all queues the whole unit.
        let open = Script::gate(&sink.all_gate);
        eg.push(b"jk", 1).unwrap();
        assert_eq!((sink.log().len(), eg.pending()), (9, 1));
        open.send(()).unwrap();
        wait_until("the queue drained again", || eg.pending() == 0);
        assert_eq!(sink.log(), b"abcdefghijk");
        eg.close();
        writer.join().unwrap();
        assert!(!sink.overlapped.load(Ordering::SeqCst));
    }

    #[test]
    fn the_writer_thread_stays_out_of_an_in_place_write() {
        let (sink, eg) = egress(usize::MAX, 8);
        let finish_inline = Script::gate(&sink.try_gate);
        let writer = {
            let eg = Arc::clone(&eg);
            std::thread::spawn(move || eg.run_writer())
        };
        let first = {
            let eg = Arc::clone(&eg);
            std::thread::spawn(move || eg.push(b"first.", 1))
        };
        wait_until("the in-place write began", || {
            sink.busy.load(Ordering::SeqCst)
        });
        wait_until("the writer thread parked", || eg.queue().writer_parked);
        // Arrivals during the write queue up and leave. The writer
        // thread has work it may not start, and nobody wakes it for it.
        eg.push(b"second.", 1).unwrap();
        eg.push(b"third.", 1).unwrap();
        assert_eq!(eg.pending(), 3);
        assert!(eg.queue().writer_parked, "woken behind an in-place write");
        assert!(sink.log().is_empty(), "written past an in-place write");
        finish_inline.send(()).unwrap();
        first.join().unwrap().unwrap();
        wait_until("the queue drained", || eg.pending() == 0);
        assert_eq!(sink.log(), b"first.second.third.");
        assert!(
            !sink.overlapped.load(Ordering::SeqCst),
            "two writes at once"
        );
        eg.close();
        writer.join().unwrap();
    }

    #[test]
    fn at_the_bound_try_is_full_and_wait_parks_until_room() {
        let (sink, eg) = egress(0, 2);
        let open = Script::gate(&sink.all_gate);
        eg.push(b"a", 1).unwrap();
        eg.push(b"b", 1).unwrap();
        assert_eq!(eg.pending(), 2);
        assert!(matches!(eg.admit(1, false), Err(TransportError::Full)));
        assert_eq!(eg.pending(), 2, "a refused unit leaves no trace");
        let parked = {
            let eg = Arc::clone(&eg);
            std::thread::spawn(move || eg.push(b"c", 1))
        };
        wait_until("the sender parked", || eg.queue().senders_parked == 1);
        let writer = {
            let eg = Arc::clone(&eg);
            std::thread::spawn(move || eg.run_writer())
        };
        open.send(()).unwrap();
        parked.join().unwrap().unwrap();
        wait_until("the queue drained", || eg.pending() == 0);
        assert_eq!(sink.log(), b"abc");
        eg.close();
        writer.join().unwrap();
    }

    #[test]
    fn failure_during_an_in_place_write_releases_parked_senders_with_eof() {
        let (sink, eg) = egress(usize::MAX, 1);
        let finish_inline = Script::gate(&sink.try_gate);
        let writer = {
            let eg = Arc::clone(&eg);
            std::thread::spawn(move || eg.run_writer())
        };
        let inline = {
            let eg = Arc::clone(&eg);
            std::thread::spawn(move || eg.push(b"x", 1))
        };
        wait_until("the in-place write began", || {
            sink.busy.load(Ordering::SeqCst)
        });
        let parked = {
            let eg = Arc::clone(&eg);
            std::thread::spawn(move || eg.push(b"y", 1))
        };
        wait_until("the second sender parked", || {
            eg.queue().senders_parked == 1
        });
        eg.fail();
        assert!(matches!(parked.join().unwrap(), Err(TransportError::Eof)));
        writer.join().unwrap();
        finish_inline.send(()).unwrap();
        assert!(matches!(inline.join().unwrap(), Err(TransportError::Eof)));
        assert_eq!(eg.pending(), 0, "a dead link holds nothing");
        assert!(matches!(eg.push(b"z", 1), Err(TransportError::Eof)));
    }

    #[test]
    fn an_in_place_write_error_kills_the_link() {
        let (sink, eg) = egress(usize::MAX, 4);
        sink.fail_try.store(true, Ordering::SeqCst);
        assert!(matches!(eg.push(b"x", 1), Err(TransportError::Eof)));
        assert!(matches!(eg.admit(1, false), Err(TransportError::Eof)));
        // The writer thread has nothing to wait for.
        eg.run_writer();
    }
}
