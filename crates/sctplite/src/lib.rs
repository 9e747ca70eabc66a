//! # scale-sctplite
//!
//! A message-oriented, multi-stream association transport in the spirit
//! of SCTP (which carries S1AP in real LTE deployments). Its layers:
//!
//! * [`chunk`] — the wire format (INIT/DATA/HEARTBEAT/SHUTDOWN frames
//!   with verification tags), written in place ([`Frame::encode_into`])
//!   and parsed in place ([`FrameView`]);
//! * [`assoc`] — a sans-IO state machine ([`Association`]) usable from
//!   any transport, holding its peer to the stream count the handshake
//!   settled on;
//! * [`framing`] — sans-IO length-delimited framing of those frames
//!   over a byte stream (many frames per read, one write per batch);
//! * [`ingress`] — the sans-IO receive pipeline on top of the two:
//!   reads in, in-order messages out, as places in the read buffer or
//!   as owned events sharing one copy of the read;
//! * [`memory`] — an in-memory link with deterministic fault injection
//!   (drop/corrupt, as netem provided in the paper's testbed);
//! * [`tokio_transport`] — the async TCP adapter used by the runnable
//!   prototype, with per-link artificial propagation delay; `egress`
//!   is the bounded send buffer of its split links.
//!
//! One copy each way. A received payload stays in the read buffer until
//! its consumer has looked at it — a relay forwards it from there
//! ([`SctpRecvHalf::next_batch`]), a consumer that keeps it shares one
//! copy per read with the read's other messages. A sent message is
//! numbered, framed and encoded straight into the buffer the link
//! writes from ([`SctpSendHalf::send_unit`],
//! [`Association::send_into`]). Only a message that arrives ahead of
//! its turn is copied on its own, into the reorder buffer.
//!
//! Substitution note (DESIGN.md): kernel SCTP is not portable or
//! laptop-friendly; sctplite supplies exactly the SCTP properties S1AP
//! needs — message boundaries, multiple ordered streams, liveness probes
//! — over TCP or in-process queues.

#![forbid(unsafe_code)]

pub mod assoc;
pub mod chunk;
mod egress;
pub mod framing;
pub mod ingress;
pub mod memory;
pub mod tokio_transport;

pub use assoc::{AssocState, Association, DataRef, Event};
pub use chunk::{ppid, Chunk, ChunkType, ChunkView, Frame, FrameView, SctpError, MAX_PAYLOAD};
pub use framing::{frame_into, Deframer};
pub use ingress::{BatchItem, Ingress, ReadBatch, StreamEvent};
pub use memory::{FaultInjector, MemoryLink};
pub use tokio_transport::{
    EgressUnit, LinkMetrics, SctpListener, SctpRecvHalf, SctpSendHalf, SctpStream, TransportError,
};

#[cfg(test)]
mod proptests {
    use super::*;
    use bytes::Bytes;
    use proptest::prelude::*;

    /// Any chunk the canonical encoder can produce.
    fn arb_chunk() -> impl Strategy<Value = Chunk> {
        prop_oneof![
            (any::<u32>(), any::<u16>())
                .prop_map(|(init_tag, num_streams)| Chunk::Init { init_tag, num_streams }),
            (any::<u32>(), any::<u16>())
                .prop_map(|(init_tag, num_streams)| Chunk::InitAck { init_tag, num_streams }),
            (
                any::<u16>(),
                any::<u32>(),
                any::<u32>(),
                proptest::collection::vec(any::<u8>(), 0..256)
            )
                .prop_map(|(stream_id, seq, ppid, payload)| Chunk::Data {
                    stream_id,
                    seq,
                    ppid,
                    payload: Bytes::from(payload),
                }),
            any::<u64>().prop_map(|nonce| Chunk::Heartbeat { nonce }),
            any::<u64>().prop_map(|nonce| Chunk::HeartbeatAck { nonce }),
            Just(Chunk::Shutdown),
            Just(Chunk::ShutdownAck),
            any::<u8>().prop_map(|reason| Chunk::Abort { reason }),
        ]
    }

    proptest! {
        #[test]
        fn frame_roundtrip(tag in any::<u32>(), stream in any::<u16>(), seq in any::<u32>(),
                           ppid_v in any::<u32>(),
                           payload in proptest::collection::vec(any::<u8>(), 0..512)) {
            let f = Frame { tag, chunk: Chunk::Data { stream_id: stream, seq, ppid: ppid_v, payload: Bytes::from(payload) } };
            prop_assert_eq!(Frame::decode(f.encode()).unwrap(), f);
        }

        #[test]
        fn every_chunk_kind_roundtrips(tag in any::<u32>(), chunk in arb_chunk()) {
            let f = Frame { tag, chunk };
            prop_assert_eq!(Frame::decode(f.encode()).unwrap(), f);
        }

        #[test]
        fn decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = Frame::decode(Bytes::from(data));
        }

        /// The adversarial-input property (ISSUE 9): flip any byte of a
        /// valid frame and the decoder either rejects the buffer or
        /// produces a value that re-encodes to *exactly* the mutated
        /// bytes. Combined with `decode_never_panics` this rules out
        /// silent mis-parses, over-reads and non-canonical acceptance:
        /// whatever decodes is precisely what a canonical encoder emits.
        #[test]
        fn byte_mutations_decode_canonically(tag in any::<u32>(), chunk in arb_chunk(),
                                             pos in any::<usize>(),
                                             xor in 1u8..=255) {
            let valid = Frame { tag, chunk }.encode();
            let mut mutated = valid.to_vec();
            let i = pos % mutated.len();
            mutated[i] ^= xor;
            let mutated = Bytes::from(mutated);
            if let Ok(parsed) = Frame::decode(mutated.clone()) {
                prop_assert_eq!(parsed.encode(), mutated);
            }
        }

        /// Truncating or extending a valid frame is always detected —
        /// the declared length must consume the buffer exactly, so the
        /// decoder cannot over-read past one message into the next.
        #[test]
        fn length_mutations_always_error(tag in any::<u32>(), chunk in arb_chunk(),
                                         delta in 1usize..16, extend in any::<bool>()) {
            let valid = Frame { tag, chunk }.encode();
            let mutated = if extend {
                let mut v = valid.to_vec();
                v.extend(std::iter::repeat_n(0xAA, delta));
                v
            } else {
                let keep = valid.len().saturating_sub(delta);
                valid[..keep].to_vec()
            };
            prop_assert!(Frame::decode(Bytes::from(mutated)).is_err());
        }

        #[test]
        fn lossy_link_preserves_order(seed in any::<u64>(), n in 1usize..100) {
            let mut link = MemoryLink::with_faults(
                FaultInjector::new(seed, 0.2, 0.0),
                FaultInjector::none(),
            );
            for i in 0..n {
                link.a.send(0, ppid::S1AP, Bytes::from((i as u32).to_be_bytes().to_vec())).unwrap();
            }
            let _ = link.pump();
            let got = link.drain_b();
            for (i, (_, _, payload)) in got.iter().enumerate() {
                prop_assert_eq!(u32::from_be_bytes(payload[..].try_into().unwrap()), i as u32);
            }
        }
    }
}
