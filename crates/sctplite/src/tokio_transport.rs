//! Tokio adapter: runs an sctplite association over a TCP stream with
//! length-delimited frames.
//!
//! This is the transport of the runnable prototype: eNodeB↔MLB and
//! MLB↔MMP links are `SctpStream`s, giving S1AP its message-oriented,
//! multi-stream semantics on a laptop without kernel SCTP. An optional
//! per-link artificial delay emulates inter-DC propagation the way the
//! paper used netem (§5.1 E4-ii).
//!
//! Both directions batch by what is already there, never by a timer
//! (DESIGN.md §14.2). Receiving, one `read` takes whatever the socket
//! holds and every complete frame in it is handled before the next
//! `read`. Sending on a split link, whoever finds it idle writes its
//! own unit in place, and whatever is queued behind a write in progress
//! leaves in the writer thread's next `write` (`egress.rs`). Sending on
//! an unsplit [`SctpStream`], a send made while messages of the last
//! read are still waiting to be taken is held, and the first send made
//! with none waiting writes everything held in one `write` — as does
//! the next read, ping or shutdown ([`SctpStream::send`]). A lone
//! message crosses on its sender's own thread and wakes nobody; under
//! load the backlog is the batch, and system calls per message fall
//! with queue depth.
//!
//! A payload is copied once each way. Received messages are parsed
//! where the read left them; a consumer that forwards them takes them
//! as slices of the read buffer ([`SctpRecvHalf::next_batch`]), and the
//! ones that want owned [`StreamEvent`]s share one copy of the read
//! between all its messages. Sent messages are numbered, framed and
//! encoded straight into the buffer they are written from
//! ([`SctpSendHalf::send_unit`]).

use crate::assoc::Association;
use crate::chunk::SctpError;
use crate::egress::{Egress, Sink, WIRE_RETAIN};
use crate::framing::frame_into;
use crate::ingress::{Ingress, ReadBatch, StreamEvent};
use bytes::Bytes;
use parking_lot::Mutex;
use scale_obs::{Counter, Histogram, Registry};
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tokio::io::{AsyncReadExt, AsyncWriteExt};
use tokio::net::tcp::{OwnedReadHalf, OwnedWriteHalf};
use tokio::net::{TcpListener, TcpStream};

/// Error type for the async transport.
#[derive(Debug)]
pub enum TransportError {
    Io(io::Error),
    Protocol(SctpError),
    /// Peer vanished: the TCP stream ended without a SHUTDOWN
    /// handshake. This is what a crashed MMP looks like from the MLB.
    Eof,
    /// Association closed cleanly via the SHUTDOWN / SHUTDOWN-ACK
    /// handshake — the peer *chose* to end the session.
    Closed,
    /// Peer aborted the association with a reason code.
    Aborted(u8),
    /// The egress buffer of a split link is at its bound. Only the
    /// `try_` sends say so; the others wait there instead.
    Full,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Io(e) => write!(f, "io: {e}"),
            TransportError::Protocol(e) => write!(f, "protocol: {e}"),
            TransportError::Eof => write!(f, "peer vanished"),
            TransportError::Closed => write!(f, "association closed cleanly"),
            TransportError::Aborted(reason) => write!(f, "association aborted: {reason}"),
            TransportError::Full => write!(f, "egress buffer full"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<io::Error> for TransportError {
    fn from(e: io::Error) -> Self {
        TransportError::Io(e)
    }
}

impl From<SctpError> for TransportError {
    fn from(e: SctpError) -> Self {
        TransportError::Protocol(e)
    }
}

/// One `read` into `ingress`'s buffer. A stream that ends between
/// frames is [`TransportError::Eof`]; one that ends inside a frame is an
/// I/O error.
async fn fill(rd: &mut OwnedReadHalf, ingress: &mut Ingress) -> Result<(), TransportError> {
    let n = rd.read(ingress.space()).await?;
    if n == 0 {
        return Err(if ingress.buffered() == 0 {
            TransportError::Eof
        } else {
            io::Error::from(io::ErrorKind::UnexpectedEof).into()
        });
    }
    ingress.filled(n);
    Ok(())
}

/// Append everything the association wants to transmit to `wire`,
/// length-prefixed; returns the number of frames.
fn drain_wire(a: &mut Association, wire: &mut Vec<u8>) -> usize {
    let mut n = 0;
    while let Some(f) = a.poll_egress() {
        frame_into(&f, wire);
        n += 1;
    }
    n
}

/// Link-level metric handles for one monitored association: heartbeat
/// round-trip time and reconnect count. Register once per logical link
/// (e.g. MLB↔MMP-3) and attach with [`SctpStream::attach_metrics`];
/// clones share the same underlying registry entries, so a link that is
/// re-established keeps accumulating into the same series.
#[derive(Clone)]
pub struct LinkMetrics {
    rtt: Arc<Histogram>,
    reconnects: Arc<Counter>,
}

impl LinkMetrics {
    /// Register (or look up) the metrics of the link named `link` in
    /// `registry`: `scale_link_<link>_heartbeat_rtt_us` and
    /// `scale_link_<link>_reconnects_total`.
    pub fn register(registry: &Registry, link: &str) -> LinkMetrics {
        LinkMetrics {
            rtt: registry.histogram(
                &format!("scale_link_{link}_heartbeat_rtt_us"),
                "HEARTBEAT to HEARTBEAT-ACK round-trip time of the association",
            ),
            reconnects: registry.counter(
                &format!("scale_link_{link}_reconnects_total"),
                "Times the association was re-established after a failure",
            ),
        }
    }

    /// The heartbeat RTT histogram (µs).
    pub fn rtt(&self) -> &Histogram {
        &self.rtt
    }

    /// Number of re-establishments so far.
    pub fn reconnects(&self) -> u64 {
        self.reconnects.get()
    }

    /// Count one re-establishment. [`SctpStream::reconnect`] calls this
    /// itself; a supervisor that replaces a dead link with a *fresh*
    /// connect + [`SctpStream::into_split`] records the event here.
    pub fn mark_reconnect(&self) {
        self.reconnects.inc();
    }
}

/// The write side of a link: the socket, and what an unsplit stream has
/// numbered and framed for it but not written yet. After
/// [`SctpStream::into_split`] the egress buffer owns it, empty.
struct Outbox {
    wr: OwnedWriteHalf,
    /// Length-prefixed frames for the next write; the buffer is reused.
    wire: Vec<u8>,
    /// Frames in `wire`.
    frames: usize,
}

impl Drop for Outbox {
    /// A stream dropped with sends held back gives them one write that
    /// does not wait for a full socket.
    fn drop(&mut self) {
        if !self.wire.is_empty() {
            let _ = self.wr.try_write(&self.wire);
        }
    }
}

/// An established sctplite association over TCP.
pub struct SctpStream {
    assoc: Association,
    rd: OwnedReadHalf,
    ingress: Ingress,
    out: Outbox,
    /// Artificial one-way delay applied before each send (propagation
    /// emulation, like the paper's netem setup).
    pub link_delay: Duration,
    /// Attached link metrics, if any.
    metrics: Option<LinkMetrics>,
    /// Send times of heartbeats whose acks are still outstanding, used
    /// to compute RTT. Only populated while metrics are attached.
    pending_pings: Vec<(u64, Instant)>,
}

impl SctpStream {
    /// Client side: TCP connect + sctplite handshake.
    pub async fn connect(addr: &str, local_tag: u32) -> Result<SctpStream, TransportError> {
        let tcp = TcpStream::connect(addr).await?;
        SctpStream::establish(tcp, Association::connect(local_tag, 8)).await
    }

    /// Server side: accept + handshake on an incoming TCP connection.
    pub async fn accept(tcp: TcpStream, local_tag: u32) -> Result<SctpStream, TransportError> {
        SctpStream::establish(tcp, Association::listen(local_tag, 8)).await
    }

    /// Run the handshake `assoc` is set up for. Anything the peer sent
    /// right behind its INIT-ACK is kept for the first `next_event`.
    async fn establish(tcp: TcpStream, assoc: Association) -> Result<SctpStream, TransportError> {
        tcp.set_nodelay(true)?;
        let (rd, wr) = tcp.into_split();
        let mut s = SctpStream {
            assoc,
            rd,
            ingress: Ingress::new(),
            out: Outbox {
                wr,
                wire: Vec::new(),
                frames: 0,
            },
            link_delay: Duration::ZERO,
            metrics: None,
            pending_pings: Vec::new(),
        };
        loop {
            s.ingress.ingest(&mut s.assoc);
            s.flush().await?;
            if s.assoc.is_established() {
                return Ok(s);
            }
            if let Some(e) = s.ingress.take_failed() {
                return Err(e);
            }
            fill(&mut s.rd, &mut s.ingress).await?;
        }
    }

    /// Write out whatever the association has queued, and whatever is
    /// already framed in the outbox, in one write.
    async fn flush(&mut self) -> Result<(), TransportError> {
        let out = &mut self.out;
        drain_wire(&mut self.assoc, &mut out.wire);
        if !out.wire.is_empty() {
            let res = out.wr.write_all(&out.wire).await;
            out.wire.clear();
            out.frames = 0;
            res?;
        }
        Ok(())
    }

    /// Observe this association: heartbeat RTTs recorded per
    /// [`ping`](Self::ping)/ack pair, re-establishments counted by
    /// [`reconnect`](Self::reconnect).
    pub fn attach_metrics(&mut self, metrics: LinkMetrics) {
        self.metrics = Some(metrics);
    }

    /// Tear down the old TCP stream and re-establish the association
    /// against `addr` (same or failover address), keeping the link
    /// delay and metrics. Outstanding pings are forgotten — their acks
    /// died with the old association — and sends held back go to the
    /// old socket as on drop. Bumps the reconnect counter.
    pub async fn reconnect(&mut self, addr: &str, local_tag: u32) -> Result<(), TransportError> {
        let fresh = SctpStream::connect(addr, local_tag).await?;
        self.assoc = fresh.assoc;
        self.rd = fresh.rd;
        self.ingress = fresh.ingress;
        self.out = fresh.out;
        self.pending_pings.clear();
        if let Some(m) = &self.metrics {
            m.reconnects.inc();
        }
        Ok(())
    }

    /// Send one application message on `stream_id`.
    ///
    /// A read's worth of work leaves in one write. While messages of
    /// the last read are still waiting to be taken, the message is
    /// numbered and framed behind whatever is held back, and nothing is
    /// written: the caller is still answering that read. The first send
    /// made with nothing left to take writes all of it at once, and so
    /// do [`Self::next_event`] before it reads, [`Self::ping`],
    /// [`Self::shutdown`], reaching 64 KiB held back, and dropping the
    /// stream; [`Self::into_split`] hands it to the egress buffer ahead
    /// of anything sent on the halves. A caller that only sends, or
    /// sends once and then reads, never has a message waiting, so each
    /// of its sends is written at once.
    pub async fn send(
        &mut self,
        stream_id: u16,
        ppid: u32,
        payload: Bytes,
    ) -> Result<(), TransportError> {
        if !self.link_delay.is_zero() {
            tokio::time::sleep(self.link_delay).await;
        }
        let out = &mut self.out;
        out.frames += drain_wire(&mut self.assoc, &mut out.wire);
        let framed = self.assoc.send_into(stream_id, ppid, &mut out.wire, |w| {
            w.extend_from_slice(&payload)
        });
        if framed.is_ok() {
            out.frames += 1;
        }
        if !self.ingress.idle() && out.wire.len() < WIRE_RETAIN {
            return Ok(framed?);
        }
        // Whatever the association had queued leaves either way.
        let written = self.flush().await;
        framed?;
        written
    }

    /// Receive the next association event: application data or a
    /// heartbeat ack. Clean close, abort, and raw TCP loss surface as
    /// the corresponding [`TransportError`] variants so a monitor can
    /// tell a departed peer from a dead one. Events parsed ahead of an
    /// error in the same read are delivered before it.
    pub async fn next_event(&mut self) -> Result<StreamEvent, TransportError> {
        loop {
            if self.ingress.idle() {
                self.ingress.ingest(&mut self.assoc);
                self.flush().await?;
            }
            if let Some(res) = self.ingress.pop() {
                if let (Ok(StreamEvent::HeartbeatAck { nonce }), Some(m)) = (&res, &self.metrics) {
                    if let Some(i) = self.pending_pings.iter().position(|(n, _)| n == nonce) {
                        m.rtt
                            .record_duration(self.pending_pings.swap_remove(i).1.elapsed());
                    }
                }
                return res;
            }
            fill(&mut self.rd, &mut self.ingress).await?;
        }
    }

    /// Receive the next application message `(stream_id, ppid, payload)`.
    /// Heartbeat acks are handled transparently; see [`Self::next_event`]
    /// for the close/crash distinction in the error.
    pub async fn recv(&mut self) -> Result<(u16, u32, Bytes), TransportError> {
        loop {
            if let StreamEvent::Data {
                stream_id,
                ppid,
                payload,
            } = self.next_event().await?
            {
                return Ok((stream_id, ppid, payload));
            }
        }
    }

    /// Send a HEARTBEAT probe carrying `nonce`. The peer's ack comes
    /// back as [`StreamEvent::HeartbeatAck`] from [`Self::next_event`].
    pub async fn ping(&mut self, nonce: u64) -> Result<(), TransportError> {
        if self.metrics.is_some() {
            self.pending_pings.push((nonce, Instant::now()));
        }
        self.assoc.heartbeat(nonce)?;
        self.flush().await
    }

    /// Graceful shutdown handshake: send SHUTDOWN and wait for the
    /// peer's SHUTDOWN-ACK. `Ok(())` means the association closed
    /// cleanly on both sides; any in-flight application data still
    /// unread when the handshake starts is discarded. An `Eof` here
    /// means the peer died mid-handshake.
    pub async fn shutdown(&mut self) -> Result<(), TransportError> {
        self.assoc.shutdown();
        self.flush().await?;
        loop {
            match self.next_event().await {
                Err(TransportError::Closed) => return Ok(()),
                Err(e) => return Err(e),
                Ok(_) => {} // drain leftover data/acks
            }
        }
    }

    /// Split into an independently-usable [`SctpSendHalf`] and
    /// [`SctpRecvHalf`] so one task can block in `next_event` while
    /// another sends — the shape every wire-deployment role needs.
    ///
    /// Outbound frames — whether sent through the send half or
    /// generated by the receive half (heartbeat acks, shutdown
    /// handshake) — pass through one *bounded* egress buffer of at most
    /// `egress_capacity` frames (`egress.rs`). A sender that
    /// finds the link idle writes its own frames in place; while any
    /// write is in progress senders append, and a dedicated writer
    /// thread puts all of it on the wire with its next write. A full
    /// buffer blocks the sender: that is the transport's backpressure.
    /// A caller that must not block uses
    /// [`SctpSendHalf::try_send_unit`] and sheds on
    /// [`TransportError::Full`].
    ///
    /// Sends the stream held back ([`Self::send`]) are the buffer's
    /// first unit, so they leave ahead of anything sent on the halves.
    /// `link_delay`, attached metrics and outstanding pings do not
    /// carry over; a supervisor owns RTT bookkeeping for split links.
    pub fn into_split(mut self, egress_capacity: usize) -> (SctpSendHalf, SctpRecvHalf) {
        let mut wire = std::mem::take(&mut self.out.wire);
        let held = std::mem::take(&mut self.out.frames);
        let egress = Arc::new(Egress::new(self.out, egress_capacity));
        // A link that fails here fails every later send the same way.
        let _ = egress.push(&wire, held);
        wire.clear();
        let shared = Arc::new(SplitShared {
            assoc: Mutex::new(self.assoc),
            egress: Arc::clone(&egress),
        });
        // Writer: exits once both halves are gone and the buffer is
        // empty, or when the peer stops accepting bytes; the last of
        // the three to go drops the write half, which shuts down the
        // TCP write direction. Detached: a peer that never reads must
        // not be able to block whoever drops the last half.
        std::thread::spawn(move || egress.run_writer());
        (
            SctpSendHalf {
                shared: Arc::clone(&shared),
            },
            SctpRecvHalf {
                shared,
                rd: self.rd,
                ingress: self.ingress,
                wire,
            },
        )
    }
}

/// The write half as the egress buffer drives it. Both calls take
/// `&self`: the egress state machine, not the borrow checker, is what
/// keeps two writes from running at once.
impl Sink for Outbox {
    fn try_write(&self, buf: &[u8]) -> io::Result<usize> {
        self.wr.try_write(buf)
    }

    fn write_blocking(&self, mut buf: &[u8]) -> io::Result<()> {
        while !buf.is_empty() {
            tokio::runtime::block_on(self.wr.writable())?;
            match self.wr.try_write(buf) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => buf = &buf[n..],
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// State shared by the two halves of a split [`SctpStream`].
struct SplitShared {
    /// The sans-IO state machine. Guard discipline: lock, mutate, drain
    /// egress into a local buffer, unlock — a guard is never held
    /// across an `.await` or a socket write (scale-lint's await-guard
    /// rule watches this file).
    assoc: Mutex<Association>,
    egress: Arc<Egress<Outbox>>,
}

impl Drop for SplitShared {
    /// Runs when the last half goes: lets the writer finish and exit.
    fn drop(&mut self) {
        self.egress.close();
    }
}

/// The sending side of a split [`SctpStream`]. Every method is
/// synchronous: it reserves room in the bounded egress buffer (blocking
/// if it is full, unless it is a `try_` call), runs the state machine
/// under a short lock, and writes the encoded frames in place if the
/// link is idle or queues them if it is not. Clones share the link;
/// frames reach the wire in the order the calls were admitted.
#[derive(Clone)]
pub struct SctpSendHalf {
    shared: Arc<SplitShared>,
}

impl SctpSendHalf {
    /// Send one application message on `stream_id`: a unit of one.
    /// (Takes the payload owned, as its callers have always passed it.)
    #[allow(clippy::needless_pass_by_value)]
    pub fn send(&self, stream_id: u16, ppid: u32, payload: Bytes) -> Result<(), TransportError> {
        self.send_unit(1, |unit| {
            unit.message(stream_id, ppid, |w| w.extend_from_slice(&payload));
        })
    }

    /// Admit `messages` application messages as one egress unit and let
    /// `fill` write them: each [`EgressUnit::message`] is numbered,
    /// framed and encoded by its caller straight into the buffer the
    /// unit is written from, so a payload is copied once, or — encoded
    /// from a typed value — not at all. At the bound of the egress
    /// buffer the caller waits for room. `fill` runs under the link's
    /// locks, so it should do no more than encode; room is reserved for
    /// the messages it announced, so it writes those, or fewer. One
    /// unit is one pass under the association lock, one write or one
    /// append to the egress buffer, at most one writer wake-up. The
    /// first message the association refuses ends the unit — those
    /// before it still leave — and is the error returned.
    pub fn send_unit(
        &self,
        messages: usize,
        fill: impl FnOnce(&mut EgressUnit<'_>),
    ) -> Result<(), TransportError> {
        self.transmit(messages, true, fill)
    }

    /// [`Self::send_unit`] for a caller that must not block: past
    /// [`Self::capacity`] the answer is [`TransportError::Full`], and
    /// then `fill` has not run and no sequence number has been spent —
    /// the link is exactly as it was.
    pub fn try_send_unit(
        &self,
        messages: usize,
        fill: impl FnOnce(&mut EgressUnit<'_>),
    ) -> Result<(), TransportError> {
        self.transmit(messages, false, fill)
    }

    /// Send a HEARTBEAT probe; the ack surfaces on the receive half.
    pub fn ping(&self, nonce: u64) -> Result<(), TransportError> {
        self.transmit(1, true, |unit| unit.control(|a| a.heartbeat(nonce)))
    }

    /// [`Self::ping`] that answers [`TransportError::Full`] instead of
    /// waiting at the bound.
    pub fn try_ping(&self, nonce: u64) -> Result<(), TransportError> {
        self.transmit(1, false, |unit| unit.control(|a| a.heartbeat(nonce)))
    }

    /// Begin the graceful SHUTDOWN handshake. The peer's ack completes
    /// it on the receive half (which then yields
    /// [`TransportError::Closed`]).
    pub fn shutdown_send(&self) -> Result<(), TransportError> {
        self.transmit(1, true, |unit| {
            unit.control(|a| {
                a.shutdown();
                Ok(())
            })
        })
    }

    /// Frames accepted by the egress buffer and not yet written. At
    /// [`Self::capacity`], the next send blocks and the next `try_`
    /// send is refused.
    pub fn pending(&self) -> usize {
        self.shared.egress.pending()
    }

    /// Bound of the egress buffer, in frames, chosen at split time.
    pub fn capacity(&self) -> usize {
        self.shared.egress.capacity()
    }

    /// Reserve room for `frames` frames (waiting for it if `wait`) and
    /// let `op` put them into the egress unit. The egress queue stays
    /// locked from admission to hand-over, so concurrent senders reach
    /// the wire in the order their sequence numbers were assigned.
    /// Frames accepted before the association refused one still leave.
    fn transmit(
        &self,
        frames: usize,
        wait: bool,
        op: impl FnOnce(&mut EgressUnit<'_>),
    ) -> Result<(), TransportError> {
        if frames == 0 {
            return Ok(());
        }
        let mut refused = None;
        self.shared.egress.submit(frames, wait, |wire| {
            let mut assoc = self.shared.assoc.lock();
            let mut unit = EgressUnit::over(&mut assoc, wire);
            op(&mut unit);
            let written;
            (written, refused) = unit.close();
            written + drain_wire(&mut assoc, wire)
        })?;
        refused.map_or(Ok(()), |e| Err(e.into()))
    }
}

/// The egress unit a [`SctpSendHalf::send_unit`] or
/// [`SctpSendHalf::try_send_unit`] caller fills: the
/// buffer the unit is written from, and the association that numbers
/// what goes into it.
pub struct EgressUnit<'a> {
    assoc: &'a mut Association,
    wire: &'a mut Vec<u8>,
    /// Messages written so far.
    frames: usize,
    refused: Option<SctpError>,
}

impl<'a> EgressUnit<'a> {
    /// A unit that numbers its messages with `assoc` and writes them
    /// onto the end of `wire` — what a send half makes for its caller,
    /// and what a link without a socket (a replay, a test) makes for
    /// itself.
    pub fn over(assoc: &'a mut Association, wire: &'a mut Vec<u8>) -> EgressUnit<'a> {
        EgressUnit {
            assoc,
            wire,
            frames: 0,
            refused: None,
        }
    }

    /// End the unit: how many messages it wrote, and the refusal that
    /// cut it short, if one did.
    pub fn close(self) -> (usize, Option<SctpError>) {
        (self.frames, self.refused)
    }

    /// Append one application message on `stream_id`: `payload` writes
    /// it behind the headers. Does nothing once a message of this unit
    /// has been refused.
    pub fn message(&mut self, stream_id: u16, ppid: u32, payload: impl FnOnce(&mut Vec<u8>)) {
        if self.refused.is_some() {
            return;
        }
        match self.assoc.send_into(stream_id, ppid, self.wire, payload) {
            Ok(()) => self.frames += 1,
            Err(e) => self.refused = Some(e),
        }
    }

    /// Run an operation that queues a control frame; the unit picks it
    /// up when it is handed over.
    fn control(&mut self, op: impl FnOnce(&mut Association) -> Result<(), SctpError>) {
        if let Err(e) = op(self.assoc) {
            self.refused = Some(e);
        }
    }
}

/// The receiving side of a split [`SctpStream`]. Protocol frames that
/// demand a response (heartbeats, shutdown) are answered through the
/// same egress buffer the send half uses.
pub struct SctpRecvHalf {
    shared: Arc<SplitShared>,
    rd: OwnedReadHalf,
    ingress: Ingress,
    /// Reused encode buffer for those responses.
    wire: Vec<u8>,
}

impl SctpRecvHalf {
    /// Parse what the buffer holds under one association lock and queue
    /// the responses it calls for.
    fn ingest(&mut self) -> Result<(), TransportError> {
        let frames = {
            let mut a = self.shared.assoc.lock();
            self.ingress.ingest(&mut a);
            drain_wire(&mut a, &mut self.wire)
        };
        let res = self.shared.egress.push(&self.wire, frames);
        self.wire.clear();
        res
    }

    /// Receive the next association event; same contract as
    /// [`SctpStream::next_event`].
    pub async fn next_event(&mut self) -> Result<StreamEvent, TransportError> {
        loop {
            if self.ingress.idle() {
                self.ingest()?;
            }
            if let Some(res) = self.ingress.pop() {
                return res;
            }
            fill(&mut self.rd, &mut self.ingress).await?;
        }
    }

    /// Block until the link delivers something, then hand over
    /// everything that read delivered, payloads borrowed from the read
    /// buffer — for a consumer that looks at a message and forwards it
    /// rather than keeping it. Never waits for more than the first
    /// item, so a lone message is delivered as promptly as by
    /// [`Self::next_event`]; under load one call returns whatever
    /// backlog the socket held. What ends the stream is returned by the
    /// call after the one that delivered the items before it.
    pub async fn next_batch(&mut self) -> Result<ReadBatch<'_>, TransportError> {
        loop {
            if self.ingress.idle() {
                self.ingest()?;
            }
            if !self.ingress.idle() {
                return self.ingress.batch();
            }
            fill(&mut self.rd, &mut self.ingress).await?;
        }
    }

    /// [`Self::next_batch`] as owned events appended to `out`, the
    /// payloads of one read sharing one copy of it.
    pub async fn next_events(&mut self, out: &mut Vec<StreamEvent>) -> Result<(), TransportError> {
        loop {
            if self.ingress.idle() {
                self.ingest()?;
            }
            if !self.ingress.idle() {
                return self.ingress.events(out);
            }
            fill(&mut self.rd, &mut self.ingress).await?;
        }
    }

    /// Receive the next application message `(stream_id, ppid, payload)`,
    /// handling heartbeat acks transparently.
    pub async fn recv(&mut self) -> Result<(u16, u32, Bytes), TransportError> {
        loop {
            if let StreamEvent::Data {
                stream_id,
                ppid,
                payload,
            } = self.next_event().await?
            {
                return Ok((stream_id, ppid, payload));
            }
        }
    }
}

/// Listener wrapper producing handshaken [`SctpStream`]s.
pub struct SctpListener {
    tcp: TcpListener,
    next_tag: u32,
}

impl SctpListener {
    pub async fn bind(addr: &str) -> Result<SctpListener, TransportError> {
        Ok(SctpListener {
            tcp: TcpListener::bind(addr).await?,
            next_tag: 0x5000_0000,
        })
    }

    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.tcp.local_addr()
    }

    pub async fn accept(&mut self) -> Result<SctpStream, TransportError> {
        let (stream, tag) = self.accept_tcp().await?;
        SctpStream::accept(stream, tag).await
    }

    /// Accept the TCP connection only, with the tag its association
    /// will carry. A server whose peers are not all well-behaved hands
    /// the pair to the thread that will own the link and runs
    /// [`SctpStream::accept`] there, under a deadline: a peer that
    /// connects and then stalls or babbles costs that thread, and the
    /// accept loop never waits for anybody's handshake.
    pub async fn accept_tcp(&mut self) -> io::Result<(TcpStream, u32)> {
        let (stream, _peer) = self.tcp.accept().await?;
        self.next_tag += 1;
        Ok((stream, self.next_tag))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::ppid;

    #[tokio::test]
    async fn connect_send_recv_over_tcp() {
        let mut listener = SctpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = tokio::spawn(async move {
            let mut s = listener.accept().await.unwrap();
            let (sid, p, payload) = s.recv().await.unwrap();
            assert_eq!((sid, p), (1, ppid::S1AP));
            s.send(1, ppid::S1AP, payload).await.unwrap(); // echo
        });
        let mut client = SctpStream::connect(&addr, 0x1234).await.unwrap();
        client
            .send(1, ppid::S1AP, Bytes::from_static(b"initial-ue-message"))
            .await
            .unwrap();
        let (sid, p, payload) = client.recv().await.unwrap();
        assert_eq!((sid, p), (1, ppid::S1AP));
        assert_eq!(&payload[..], b"initial-ue-message");
        server.await.unwrap();
    }

    #[tokio::test]
    async fn many_messages_keep_order() {
        let mut listener = SctpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = tokio::spawn(async move {
            let mut s = listener.accept().await.unwrap();
            for i in 0..200u32 {
                let (_, _, payload) = s.recv().await.unwrap();
                assert_eq!(u32::from_be_bytes(payload[..].try_into().unwrap()), i);
            }
        });
        let mut client = SctpStream::connect(&addr, 0x9).await.unwrap();
        for i in 0..200u32 {
            client
                .send(0, ppid::GTPC, Bytes::from(i.to_be_bytes().to_vec()))
                .await
                .unwrap();
        }
        server.await.unwrap();
    }

    #[tokio::test]
    async fn eof_on_peer_drop() {
        let mut listener = SctpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = tokio::spawn(async move {
            let _s = listener.accept().await.unwrap();
            // Dropped immediately: TCP closes.
        });
        let mut client = SctpStream::connect(&addr, 0x9).await.unwrap();
        server.await.unwrap();
        assert!(matches!(client.recv().await, Err(TransportError::Eof)));
    }

    #[tokio::test]
    async fn clean_shutdown_is_not_a_crash() {
        // The SHUTDOWN handshake must surface as `Closed` on the
        // passive side and complete with `Ok` on the initiator —
        // distinct from the `Eof` a dead peer produces.
        let mut listener = SctpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = tokio::spawn(async move {
            let mut s = listener.accept().await.unwrap();
            let err = s.recv().await.unwrap_err();
            assert!(matches!(err, TransportError::Closed), "got {err:?}");
        });
        let mut client = SctpStream::connect(&addr, 0x31).await.unwrap();
        client.shutdown().await.unwrap();
        server.await.unwrap();
    }

    #[tokio::test]
    async fn heartbeat_ack_roundtrip() {
        let mut listener = SctpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = tokio::spawn(async move {
            let mut s = listener.accept().await.unwrap();
            // The ack is generated inside the event pump; the server
            // just has to keep reading until the client closes.
            let err = s.recv().await.unwrap_err();
            assert!(matches!(err, TransportError::Closed));
        });
        let mut client = SctpStream::connect(&addr, 0x32).await.unwrap();
        client.ping(0xdead_beef).await.unwrap();
        match client.next_event().await.unwrap() {
            StreamEvent::HeartbeatAck { nonce } => assert_eq!(nonce, 0xdead_beef),
            other => panic!("expected heartbeat ack, got {other:?}"),
        }
        client.shutdown().await.unwrap();
        server.await.unwrap();
    }

    #[tokio::test]
    async fn split_halves_echo_ack_and_clean_close() {
        let mut listener = SctpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = tokio::spawn(async move {
            let s = listener.accept().await.unwrap();
            let (tx, mut rx) = s.into_split(16);
            loop {
                match rx.next_event().await {
                    Ok(StreamEvent::Data {
                        stream_id,
                        ppid,
                        payload,
                    }) => tx.send(stream_id, ppid, payload).unwrap(),
                    Ok(StreamEvent::HeartbeatAck { .. }) => {}
                    Err(TransportError::Closed) => break,
                    Err(e) => panic!("server: {e}"),
                }
            }
        });
        let client = SctpStream::connect(&addr, 0x77).await.unwrap();
        let (tx, mut rx) = client.into_split(16);
        assert_eq!(tx.capacity(), 16);
        tx.ping(0xabc).unwrap();
        for i in 0..50u32 {
            tx.send(2, ppid::S1AP, Bytes::from(i.to_be_bytes().to_vec()))
                .unwrap();
        }
        let (mut seen, mut acked) = (0u32, false);
        while seen < 50 {
            match rx.next_event().await.unwrap() {
                StreamEvent::Data { payload, .. } => {
                    assert_eq!(u32::from_be_bytes(payload[..].try_into().unwrap()), seen);
                    seen += 1;
                }
                StreamEvent::HeartbeatAck { nonce } => {
                    assert_eq!(nonce, 0xabc);
                    acked = true;
                }
            }
        }
        assert!(acked, "peer's event pump must answer the ping");
        tx.shutdown_send().unwrap();
        match rx.next_event().await {
            Err(TransportError::Closed) => {}
            other => panic!("expected clean close, got {other:?}"),
        }
        assert_eq!(tx.pending(), 0, "egress must be drained at close");
        server.await.unwrap();
    }

    #[tokio::test]
    async fn split_send_half_sees_peer_death_as_eof() {
        let mut listener = SctpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = tokio::spawn(async move {
            let _s = listener.accept().await.unwrap();
            // Dropped: TCP closes without a shutdown handshake.
        });
        let client = SctpStream::connect(&addr, 0x78).await.unwrap();
        let (tx, mut rx) = client.into_split(4);
        server.await.unwrap();
        assert!(matches!(rx.next_event().await, Err(TransportError::Eof)));
        // Once the reader saw EOF and both TCP halves are dead, pushes
        // eventually fail too (writer exits on its first failed write).
        let mut saw_err = false;
        for i in 0..500u32 {
            if tx.send(0, 0, Bytes::from(i.to_be_bytes().to_vec())).is_err() {
                saw_err = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(saw_err, "send half must eventually surface the dead link");
    }

    #[tokio::test]
    async fn link_delay_is_applied() {
        let mut listener = SctpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = tokio::spawn(async move {
            let mut s = listener.accept().await.unwrap();
            let _ = s.recv().await.unwrap();
        });
        let mut client = SctpStream::connect(&addr, 0x9).await.unwrap();
        client.link_delay = Duration::from_millis(30);
        let t0 = std::time::Instant::now();
        client.send(0, 0, Bytes::from_static(b"x")).await.unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(30));
        server.await.unwrap();
    }
}
