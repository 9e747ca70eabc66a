//! Micro twins: one number per layer function, so that a change in an
//! end-to-end metric can be traced to (or cleared from) a layer. Every
//! timing is the median of [`BATCHES`] batches over fixed inputs made
//! from the seed; codec and context inputs are a recorded slice of
//! real traffic, not hand-built messages.

use crate::dc::CpPump;
use crate::engine::{Engine, Shape, REPLICATION, RING_TOKENS, TOTAL_VMS};
use crate::stats::median;
use crate::trace::{NoTrace, WireRecorder};
use bytes::Bytes;
use scale_core::mlb::MlbRouter;
use scale_core::wire::WireMsg;
use scale_crypto::kdf::{derive_alg_key, derive_kasme, AlgKeyType, NasSecurityKeys, ALG_ID_AES};
use scale_crypto::md5::Md5;
use scale_crypto::milenage::Milenage;
use scale_diameter::DiameterMsg;
use scale_epc::{mix64, provision_k, ControlPlane, AMF, MTMSI_BASE, OP};
use scale_gtpc as gtpc;
use scale_hashring::{position_of, HashRing};
use scale_mme::{Incoming, MmeConfig, MmeCore, MmeError, Outgoing, UeContext};
use scale_nas::{Direction, EmmMessage, Guti, NasSecurityContext, Plmn, SecurityHeader};
use scale_s1ap::S1apPdu;
use scale_sctplite::{ppid, Chunk, Frame, SctpListener, SctpStream};
use std::hint::black_box;
use std::time::Instant;
use tokio::runtime::block_on;

pub const BATCHES: usize = 11;

/// Median nanoseconds per operation; `batch` runs `ops` operations.
fn median_ns(ops: usize, mut batch: impl FnMut()) -> f64 {
    batch(); // warm caches and the allocator
    let samples = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            batch();
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(samples)
}

/// A bare `MmeCore` that keeps every message crossing its interfaces.
struct Recording {
    inner: MmeCore,
    s1ap: Vec<S1apPdu>,
    gtpc: Vec<gtpc::Message>,
    diameter: Vec<DiameterMsg>,
}

impl ControlPlane for Recording {
    fn handle_event(&mut self, ev: Incoming) -> Result<Vec<Outgoing>, MmeError> {
        match &ev {
            Incoming::S1ap { pdu, .. } => self.s1ap.push(pdu.clone()),
            Incoming::S11(m) => self.gtpc.push(m.clone()),
            Incoming::S6a(m) => self.diameter.push(m.clone()),
        }
        let outs = self.inner.handle(ev)?;
        for o in &outs {
            match o {
                Outgoing::S1ap { pdu, .. } => self.s1ap.push(pdu.clone()),
                Outgoing::S11(m) => self.gtpc.push(m.clone()),
                Outgoing::S6a(m) => self.diameter.push(m.clone()),
                Outgoing::UeAttached { .. }
                | Outgoing::UeIdle { .. }
                | Outgoing::UeActive { .. }
                | Outgoing::UeDetached { .. } => {}
            }
        }
        Ok(outs)
    }

    fn messages_processed(&self) -> u64 {
        self.inner.stats.messages_processed
    }
}

fn seeded_bytes<const N: usize>(seed: u64, salt: u64) -> [u8; N] {
    let mut out = [0u8; N];
    for (i, chunk) in out.chunks_mut(8).enumerate() {
        let w = mix64(seed ^ mix64(salt ^ i as u64)).to_be_bytes();
        chunk.copy_from_slice(&w[..chunk.len()]);
    }
    out
}

/// Encode and decode twins over a recorded message list.
fn codec_pair<M>(
    msgs: &[M],
    encode: impl Fn(&M) -> Bytes,
    decode: impl Fn(Bytes) -> bool,
) -> (f64, f64) {
    assert!(
        !msgs.is_empty(),
        "recorded slice has no messages of this protocol"
    );
    // Enough repetitions of the slice that a batch lasts ~1 ms.
    let reps = (4_000 / msgs.len()).max(1);
    let enc = median_ns(reps * msgs.len(), || {
        for _ in 0..reps {
            for m in msgs {
                black_box(encode(black_box(m)));
            }
        }
    });
    let wire: Vec<Bytes> = msgs.iter().map(&encode).collect();
    let dec = median_ns(reps * wire.len(), || {
        for _ in 0..reps {
            for b in &wire {
                assert!(
                    decode(black_box(b.clone())),
                    "recorded message no longer decodes"
                );
            }
        }
    });
    (enc, dec)
}

/// Time `route` over `keys`, once per batch.
fn route_ns(keys: &[u32], mut route: impl FnMut(u32) -> bool) -> f64 {
    median_ns(keys.len(), || {
        for &k in keys {
            assert!(route(black_box(k)), "no route for a live fleet");
        }
    })
}

fn sctplite(out: &mut Vec<(&'static str, f64)>, seed: u64) -> Result<(), String> {
    let payload = Bytes::from(seeded_bytes::<256>(seed, 0x5c7).to_vec());
    let frame = Frame {
        tag: 0x5000_0001,
        chunk: Chunk::Data {
            stream_id: 1,
            seq: 7,
            ppid: ppid::SCALE_STATE,
            payload: payload.clone(),
        },
    };
    const N: usize = 4_000;
    out.push((
        "sctplite.chunk.encode_ns",
        median_ns(N, || {
            for _ in 0..N {
                black_box(black_box(&frame).encode());
            }
        }),
    ));
    let wire = frame.encode();
    out.push((
        "sctplite.chunk.decode_ns",
        median_ns(N, || {
            for _ in 0..N {
                black_box(Frame::decode(black_box(wire.clone())).expect("own frame decodes"));
            }
        }),
    ));

    // Loopback association: the peer thread first sinks the one-way
    // stream, stamping every `PER_BATCH`th arrival, then echoes pings.
    const PER_BATCH: usize = 20_000;
    const STREAM: usize = BATCHES * PER_BATCH;
    const PINGS: usize = 20_000;
    let err = |e| format!("sctplite loopback: {e}");
    let mut listener = block_on(SctpListener::bind("127.0.0.1:0")).map_err(err)?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("sctplite loopback: {e}"))?;
    let peer = std::thread::spawn(move || -> Result<Vec<Instant>, String> {
        let err = |e| format!("sctplite loopback peer: {e}");
        let mut s = block_on(listener.accept()).map_err(err)?;
        let mut marks = Vec::with_capacity(BATCHES + 1);
        block_on(s.recv()).map_err(err)?; // start marker
        marks.push(Instant::now());
        for i in 1..=STREAM {
            block_on(s.recv()).map_err(err)?;
            if i % PER_BATCH == 0 {
                marks.push(Instant::now());
            }
        }
        for _ in 0..PINGS {
            let (stream_id, ppid, payload) = block_on(s.recv()).map_err(err)?;
            block_on(s.send(stream_id, ppid, payload)).map_err(err)?;
        }
        Ok(marks)
    });
    let mut s = block_on(SctpStream::connect(&addr.to_string(), 0x0100_0000)).map_err(err)?;
    for _ in 0..=STREAM {
        block_on(s.send(1, ppid::SCALE_STATE, payload.clone())).map_err(err)?;
    }
    let mut rtts = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let t = Instant::now();
        block_on(s.send(1, ppid::SCALE_STATE, payload.clone())).map_err(err)?;
        block_on(s.recv()).map_err(err)?;
        rtts.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    let marks = peer
        .join()
        .map_err(|_| "sctplite loopback peer panicked".to_string())??;
    let per_msg = marks
        .windows(2)
        .map(|w| (w[1] - w[0]).as_nanos() as f64 / PER_BATCH as f64)
        .collect();
    out.push(("sctplite.tokio.stream_ns_per_msg", median(per_msg)));
    out.push(("sctplite.tokio.rtt_p50_us", median(rtts)));
    Ok(())
}

fn crypto(out: &mut Vec<(&'static str, f64)>, seed: u64) {
    const N: usize = 2_000;
    let k = provision_k("001010000000000");
    let mil = Milenage::from_op(&k, &OP);
    let rands: Vec<[u8; 16]> = (0..N as u64)
        .map(|i| seeded_bytes(seed, 0xaa00 + i))
        .collect();
    let sqn = [0, 0, 0, 0, 0, 1];
    out.push((
        "crypto.milenage.vector_ns",
        median_ns(N, || {
            for r in &rands {
                black_box(mil.f1(black_box(r), &sqn, &AMF));
                black_box(mil.f2345(r));
            }
        }),
    ));
    let v = mil.f2345(&rands[0]);
    let plmn = Plmn::test();
    let sqn_xor_ak: [u8; 6] = seeded_bytes(seed, 0xbb);
    out.push((
        "crypto.kdf.kasme_ns",
        median_ns(N, || {
            for _ in 0..N {
                black_box(derive_kasme(black_box(&v.ck), &v.ik, &plmn.0, &sqn_xor_ak));
            }
        }),
    ));
    let gutis: Vec<[u8; 10]> = (0..N as u32)
        .map(|i| guti(MTMSI_BASE + i).to_bytes())
        .collect();
    out.push((
        "crypto.md5.digest_ns",
        median_ns(N, || {
            for g in &gutis {
                black_box(Md5::digest(black_box(g)));
            }
        }),
    ));
    let key: [u8; 16] = seeded_bytes(seed, 0xcc);
    let msg: [u8; 32] = seeded_bytes(seed, 0xdd);
    out.push((
        "crypto.cmac.eia2_ns",
        median_ns(N, || {
            for count in 0..N as u32 {
                black_box(scale_crypto::cmac::eia2_mac(
                    &key,
                    count,
                    0,
                    false,
                    black_box(&msg),
                ));
            }
        }),
    ));
}

fn guti(m_tmsi: u32) -> Guti {
    Guti {
        plmn: Plmn::test(),
        mme_group_id: 0x8001,
        mme_code: 1,
        m_tmsi,
    }
}

fn routing(out: &mut Vec<(&'static str, f64)>, shape: &Shape) {
    let mut ring: HashRing<u32> = HashRing::new(RING_TOKENS);
    for vm in 1..=TOTAL_VMS as u32 {
        ring.add_node(vm);
    }
    const HOT: usize = 512;
    const COLD: usize = 1 << 20;
    let keys: Vec<u64> = (0..4_096).map(|i| mix64(shape.seed ^ i)).collect();
    out.push((
        "hashring.ring.primary_ns",
        median_ns(keys.len(), || {
            for k in &keys {
                black_box(ring.primary(black_box(k)));
            }
        }),
    ));
    let positions: Vec<u64> = keys.iter().map(position_of).collect();
    out.push((
        "hashring.ring.replicas_r2_ns",
        median_ns(positions.len(), || {
            for &p in &positions {
                black_box(ring.replicas_each(black_box(p), REPLICATION, |vm| {
                    black_box(vm);
                }));
            }
        }),
    ));

    let hot: Vec<u32> = (0..HOT as u32).map(|i| MTMSI_BASE + i).collect();
    let plane = shape.topo().route_plane();
    let mut reader = plane.reader();
    out.push((
        "core.routeplane.route_new_attach_ns",
        route_ns(&hot, |m| reader.route_new_attach(m).is_some()),
    ));
    out.push((
        "core.routeplane.route_idle_ns",
        route_ns(&hot, |m| reader.route_idle(m).is_some()),
    ));
    // 2^20 distinct identities per pass: every lookup misses the memo.
    let mut next = MTMSI_BASE + HOT as u32;
    let mut cold_reader = plane.reader();
    let t = Instant::now();
    for _ in 0..COLD {
        next += 1;
        assert!(cold_reader.route_idle(black_box(next)).is_some());
    }
    out.push((
        "core.routeplane.route_idle_cold_ns",
        t.elapsed().as_nanos() as f64 / COLD as f64,
    ));

    let mut mlb = MlbRouter::new(RING_TOKENS, REPLICATION, Plmn::test(), 0x8001, 1);
    for vm in 1..=TOTAL_VMS as u32 {
        mlb.add_mmp(vm);
    }
    out.push((
        "core.mlb.route_idle_ns",
        route_ns(&hot, |m| mlb.route_idle_transition(m).is_some()),
    ));
    let t = Instant::now();
    for _ in 0..COLD {
        next += 1;
        assert!(mlb.route_idle_transition(black_box(next)).is_some());
    }
    out.push((
        "core.mlb.route_idle_cold_ns",
        t.elapsed().as_nanos() as f64 / COLD as f64,
    ));
}

/// Codecs, context (de)serialization and NAS security, over a slice of
/// traffic recorded from a bare `MmeCore` running the session script.
fn recorded_codecs(out: &mut Vec<(&'static str, f64)>, seed: u64) -> Result<(), String> {
    let shape = Shape {
        n_ues: 64,
        ops_per_ue: 3,
        window: 8,
        seed,
    };
    let cp = Recording {
        inner: MmeCore::new(MmeConfig::default()),
        s1ap: Vec::new(),
        gtpc: Vec::new(),
        diameter: Vec::new(),
    };
    let mut pump = CpPump::build(cp, &shape, true);
    let run = pump.run(&shape, &mut NoTrace);
    if run.counts.errors != 0 || run.counts.sessions_done != shape.n_ues as u64 {
        return Err(format!("recording run failed: {:?}", run.counts));
    }
    let rec = &pump.cp;

    let plain_nas: Vec<EmmMessage> = rec
        .s1ap
        .iter()
        .filter_map(|p| match p {
            S1apPdu::InitialUeMessage { nas_pdu, .. }
            | S1apPdu::UplinkNasTransport { nas_pdu, .. }
            | S1apPdu::DownlinkNasTransport { nas_pdu, .. } => Some(nas_pdu),
            _ => None,
        })
        .filter(|nas| !scale_nas::is_protected(nas))
        .filter_map(|nas| EmmMessage::decode(nas.clone()).ok())
        .collect();
    let (e, d) = codec_pair(&plain_nas, EmmMessage::encode, |b| {
        EmmMessage::decode(b).is_ok()
    });
    out.push(("nas.emm.encode_ns", e));
    out.push(("nas.emm.decode_ns", d));
    let (e, d) = codec_pair(&rec.s1ap, S1apPdu::encode, |b| S1apPdu::decode(b).is_ok());
    out.push(("s1ap.pdu.encode_ns", e));
    out.push(("s1ap.pdu.decode_ns", d));
    let (e, d) = codec_pair(&rec.gtpc, gtpc::Message::encode, |b| {
        gtpc::Message::decode(b).is_ok()
    });
    out.push(("gtpc.msg.encode_ns", e));
    out.push(("gtpc.msg.decode_ns", d));
    let (e, d) = codec_pair(&rec.diameter, DiameterMsg::encode, |b| {
        DiameterMsg::decode(b).is_ok()
    });
    out.push(("diameter.msg.encode_ns", e));
    out.push(("diameter.msg.decode_ns", d));

    // NAS security over the accept messages of the slice. SEQ is 8
    // bits on the wire, so each context protects at most 200 messages.
    let accepts: Vec<EmmMessage> = plain_nas
        .iter()
        .filter(|m| {
            matches!(
                m,
                EmmMessage::AttachAccept { .. } | EmmMessage::TauAccept { .. }
            )
        })
        .cloned()
        .chain([EmmMessage::TauAccept {
            t3412_s: 3240,
            guti: Some(guti(MTMSI_BASE)),
        }])
        .collect();
    let kasme: [u8; 32] = seeded_bytes(seed, 0xee);
    let keys = NasSecurityKeys {
        kasme,
        k_nas_enc: derive_alg_key(&kasme, AlgKeyType::NasEnc, ALG_ID_AES),
        k_nas_int: derive_alg_key(&kasme, AlgKeyType::NasInt, ALG_ID_AES),
    };
    const PER_CTX: usize = 200;
    const CTXS: usize = 10;
    let protect_all = |sink: &mut Vec<Bytes>| {
        for _ in 0..CTXS {
            let mut ctx = NasSecurityContext::new(keys, 1);
            for i in 0..PER_CTX {
                let m = &accepts[i % accepts.len()];
                sink.push(ctx.protect(m, Direction::Downlink, SecurityHeader::IntegrityCiphered));
            }
        }
    };
    let mut sink = Vec::with_capacity(CTXS * PER_CTX);
    out.push((
        "nas.security.protect_ns",
        median_ns(CTXS * PER_CTX, || {
            sink.clear();
            protect_all(&mut sink);
        }),
    ));
    out.push((
        "nas.security.unprotect_ns",
        median_ns(CTXS * PER_CTX, || {
            for per_ctx in sink.chunks(PER_CTX) {
                let mut ctx = NasSecurityContext::new(keys, 1);
                for b in per_ctx {
                    black_box(
                        ctx.unprotect(b.clone(), Direction::Downlink)
                            .expect("own message unprotects"),
                    );
                }
            }
        }),
    ));

    // The replication unit: contexts of registered, idle devices.
    let blobs: Vec<Bytes> = rec.inner.contexts().map(UeContext::to_bytes).collect();
    let ctxs: Vec<UeContext> = rec.inner.contexts().cloned().collect();
    let reps = 16;
    out.push((
        "mme.context.to_bytes_ns",
        median_ns(reps * ctxs.len(), || {
            for _ in 0..reps {
                for c in &ctxs {
                    black_box(black_box(c).to_bytes());
                }
            }
        }),
    ));
    out.push((
        "mme.context.from_bytes_ns",
        median_ns(reps * blobs.len(), || {
            for _ in 0..reps {
                for b in &blobs {
                    black_box(UeContext::from_bytes(b.clone()).expect("own blob imports"));
                }
            }
        }),
    ));
    let total: usize = blobs.iter().map(Bytes::len).sum();
    out.push(("mme.context.blob_bytes", total as f64 / blobs.len() as f64));
    Ok(())
}

/// Every hop of a recorded `engine_idle_churn` slice through the
/// `WireMsg` codec — what the wire deployment pays per session on top
/// of the engine.
fn wire_codec(out: &mut Vec<(&'static str, f64)>, seed: u64) -> Result<(), String> {
    let shape = Shape {
        n_ues: 64,
        ops_per_ue: 32,
        window: 64,
        seed,
    };
    let record = || {
        let mut rec = WireRecorder::default();
        let run = Engine::build(&shape).run(&shape, &mut rec);
        (rec.msgs, run.counts)
    };
    let (msgs, counts) = record();
    if counts.enb.sessions_done != shape.n_ues as u64 || counts.enb.errors != 0 {
        return Err(format!("wire codec slice failed: {:?}", counts.enb));
    }
    let (e, d) = codec_pair(&msgs, WireMsg::encode, |b| WireMsg::decode(b).is_ok());
    out.push(("core.wire.codec.encode_ns_per_msg", e));
    out.push(("core.wire.codec.decode_ns_per_msg", d));
    let bytes = |msgs: &[WireMsg]| msgs.iter().map(|m| m.encode().len()).sum::<usize>();
    let total = bytes(&msgs);
    // Counts must repeat exactly, or they cannot be compared across
    // two versions of the code.
    let (again, counts2) = record();
    if again.len() != msgs.len() || bytes(&again) != total || counts2 != counts {
        return Err(
            "wire codec slice is not deterministic: two runs of one seed differ".to_string(),
        );
    }
    out.push((
        "core.wire.codec.bytes_per_session",
        total as f64 / shape.n_ues as f64,
    ));
    Ok(())
}

/// All workload-independent layer numbers.
pub fn run_all(shape: &Shape) -> Result<Vec<(&'static str, f64)>, String> {
    let mut out = Vec::new();
    sctplite(&mut out, shape.seed)?;
    crypto(&mut out, shape.seed);
    routing(&mut out, shape);
    recorded_codecs(&mut out, shape.seed)?;
    wire_codec(&mut out, shape.seed)?;
    Ok(out)
}
