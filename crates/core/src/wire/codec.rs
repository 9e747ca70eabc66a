//! The wire message and its codec (see the parent module's "Codec"
//! section): typed [`WireMsg`] values for the processes that consume
//! what they receive, the borrowed [`WireView`] for the one that
//! forwards it, one byte format under both.
//!
//! lint: hot-path

use crate::mlb::VmId;
use bytes::Bytes;
use scale_nas::{NasError, View, Writer};
use scale_s1ap::S1apPdu;

/// Which process kind a link's `Hello` announces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireRole {
    /// An eNodeB-emulator process (id = cell index).
    Enb,
    /// An MMP worker process (id = MMP index).
    Mmp,
}

/// One message on a wire link. The direction column says who sends it
/// in the star topology (everything passes through the MLB).
#[derive(Debug, Clone, PartialEq)]
pub enum WireMsg {
    /// First message on any link: announce role and index.
    Hello {
        /// Process kind.
        role: WireRole,
        /// Cell index (eNB) or MMP index.
        id: u32,
    },
    /// eNB → MLB: an S1AP PDU from the access side. `attach_hint`
    /// carries the MLB-assigned M-TMSI on fresh attaches (it becomes
    /// the `guti_hint` of the `Deliver`).
    Uplink {
        /// Originating eNodeB.
        enb_id: u32,
        /// M-TMSI to mint, on the Initial UE Message of an attach.
        attach_hint: Option<u32>,
        /// The PDU.
        pdu: S1apPdu,
    },
    /// MLB → MMP: deliver a PDU to engine `vm`.
    Deliver {
        /// Target MMP engine.
        vm: VmId,
        /// M-TMSI to mint for a fresh attach.
        guti_hint: Option<u32>,
        /// eNodeB the PDU came from (responses return there).
        enb_id: u32,
        /// The PDU.
        pdu: S1apPdu,
    },
    /// MMP → MLB → eNB: an S1AP PDU toward an eNodeB.
    ToEnb {
        /// Destination eNodeB.
        enb_id: u32,
        /// The PDU.
        pdu: S1apPdu,
    },
    /// MMP → MLB → eNB: a device reached a lifecycle edge (`active` =
    /// Attach/SR terminal edge; `!active` = S1 release/TAU edge).
    Settled {
        /// Device identity.
        m_tmsi: u32,
        /// Whether the edge entered Active (else Idle).
        active: bool,
    },
    /// MMP → MLB → MMP: Idle-edge replica blob for engine `vm`.
    Replicate {
        /// Holder VM receiving the copy.
        vm: VmId,
        /// Serialized `UeContext`.
        blob: Bytes,
    },
    /// MMP → MLB → MMP: drop the stray copy of `m_tmsi` held by `vm`.
    DropCtx {
        /// VM holding the stray copy.
        vm: VmId,
        /// Identity to remove.
        m_tmsi: u32,
    },
    /// MLB → eNB: the MMP serving this device's in-flight procedure
    /// died; the access side must re-drive it.
    ProcFailed {
        /// Device identity.
        m_tmsi: u32,
    },
    /// MLB → MMP broadcast: `vm` is down; exclude it from replica
    /// placement until further notice.
    VmDown {
        /// The dead VM.
        vm: VmId,
    },
    /// MLB → MMP broadcast: `vm` rejoined (a restarted process
    /// reconnected); replica placement may use it again.
    VmUp {
        /// The revived VM.
        vm: VmId,
    },
}

const TAG_HELLO: u8 = 1;
const TAG_UPLINK: u8 = 2;
const TAG_DELIVER: u8 = 3;
const TAG_TO_ENB: u8 = 4;
const TAG_SETTLED: u8 = 5;
const TAG_REPLICATE: u8 = 6;
const TAG_DROP_CTX: u8 = 7;
const TAG_PROC_FAILED: u8 = 8;
const TAG_VM_DOWN: u8 = 9;
const TAG_VM_UP: u8 = 10;

fn put_opt_u32(w: &mut Writer, v: Option<u32>) {
    match v {
        Some(x) => {
            w.u8(1);
            w.u32(x);
        }
        None => w.u8(0),
    }
}

fn get_opt_u32(r: &mut View<'_>) -> Result<Option<u32>, NasError> {
    match r.u8("option tag")? {
        0 => Ok(None),
        _ => Ok(Some(r.u32("option value")?)),
    }
}

/// The body of a message: a `u32` length, then exactly that many bytes,
/// then the end of the message. The length is checked against what is
/// there before anything is done with it.
fn get_body<'a>(r: &mut View<'a>) -> Result<&'a [u8], NasError> {
    let n = r.u32("blob length")? as usize;
    let body = r.take("blob body", n)?;
    if r.remaining() != 0 {
        return Err(NasError::Invalid {
            what: "trailing bytes after wire message",
            value: r.remaining() as u64,
        });
    }
    Ok(body)
}

/// A [`WireMsg`] parsed where it lies: the envelope's fields, and the
/// body — an S1AP PDU or a context blob, still encoded — as the slice
/// of the message it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireView<'a> {
    /// See [`WireMsg::Hello`].
    Hello {
        /// Process kind.
        role: WireRole,
        /// Cell or worker index.
        id: u32,
    },
    /// See [`WireMsg::Uplink`].
    Uplink {
        /// Originating eNodeB.
        enb_id: u32,
        /// M-TMSI to mint.
        attach_hint: Option<u32>,
        /// The encoded PDU.
        pdu: &'a [u8],
    },
    /// See [`WireMsg::Deliver`].
    Deliver {
        /// Target MMP engine.
        vm: VmId,
        /// M-TMSI to mint.
        guti_hint: Option<u32>,
        /// Originating eNodeB.
        enb_id: u32,
        /// The encoded PDU.
        pdu: &'a [u8],
    },
    /// See [`WireMsg::ToEnb`].
    ToEnb {
        /// Destination eNodeB.
        enb_id: u32,
        /// The encoded PDU.
        pdu: &'a [u8],
    },
    /// See [`WireMsg::Settled`].
    Settled {
        /// Device identity.
        m_tmsi: u32,
        /// Whether the edge entered Active.
        active: bool,
    },
    /// See [`WireMsg::Replicate`].
    Replicate {
        /// Holder VM.
        vm: VmId,
        /// Serialized `UeContext`.
        blob: &'a [u8],
    },
    /// See [`WireMsg::DropCtx`].
    DropCtx {
        /// VM holding the stray copy.
        vm: VmId,
        /// Identity to remove.
        m_tmsi: u32,
    },
    /// See [`WireMsg::ProcFailed`].
    ProcFailed {
        /// Device identity.
        m_tmsi: u32,
    },
    /// See [`WireMsg::VmDown`].
    VmDown {
        /// The dead VM.
        vm: VmId,
    },
    /// See [`WireMsg::VmUp`].
    VmUp {
        /// The revived VM.
        vm: VmId,
    },
}

impl<'a> WireView<'a> {
    /// Strict parse of the envelope: unknown tags, short buffers, a
    /// body length that is not the rest of the message and trailing
    /// bytes are all errors. The body is not looked into.
    pub fn parse(buf: &'a [u8]) -> Result<WireView<'a>, NasError> {
        let mut r = View::new(buf);
        let view = match r.u8("wire tag")? {
            TAG_HELLO => WireView::Hello {
                role: match r.u8("role")? {
                    0 => WireRole::Enb,
                    1 => WireRole::Mmp,
                    other => {
                        return Err(NasError::Invalid {
                            what: "wire role",
                            value: u64::from(other),
                        })
                    }
                },
                id: r.u32("hello id")?,
            },
            TAG_UPLINK => WireView::Uplink {
                enb_id: r.u32("enb id")?,
                attach_hint: get_opt_u32(&mut r)?,
                pdu: get_body(&mut r)?,
            },
            TAG_DELIVER => WireView::Deliver {
                vm: r.u32("vm")?,
                guti_hint: get_opt_u32(&mut r)?,
                enb_id: r.u32("enb id")?,
                pdu: get_body(&mut r)?,
            },
            TAG_TO_ENB => WireView::ToEnb {
                enb_id: r.u32("enb id")?,
                pdu: get_body(&mut r)?,
            },
            TAG_SETTLED => WireView::Settled {
                m_tmsi: r.u32("m_tmsi")?,
                active: r.u8("active flag")? != 0,
            },
            TAG_REPLICATE => WireView::Replicate {
                vm: r.u32("vm")?,
                blob: get_body(&mut r)?,
            },
            TAG_DROP_CTX => WireView::DropCtx {
                vm: r.u32("vm")?,
                m_tmsi: r.u32("m_tmsi")?,
            },
            TAG_PROC_FAILED => WireView::ProcFailed {
                m_tmsi: r.u32("m_tmsi")?,
            },
            TAG_VM_DOWN => WireView::VmDown { vm: r.u32("vm")? },
            TAG_VM_UP => WireView::VmUp { vm: r.u32("vm")? },
            other => {
                return Err(NasError::Invalid {
                    what: "wire tag",
                    value: u64::from(other),
                })
            }
        };
        if r.remaining() != 0 {
            return Err(NasError::Invalid {
                what: "trailing bytes after wire message",
                value: r.remaining() as u64,
            });
        }
        Ok(view)
    }
}

/// The envelope of a `Deliver`, up to the length of the PDU behind it:
/// written from plain fields, because the MLB writes it in front of a
/// PDU it forwards as bytes.
pub(super) fn put_deliver_fields(w: &mut Writer, vm: VmId, guti_hint: Option<u32>, enb_id: u32) {
    w.u8(TAG_DELIVER);
    w.u32(vm);
    put_opt_u32(w, guti_hint);
    w.u32(enb_id);
}

/// A length-prefixed PDU, encoded where it stays.
fn put_pdu(w: &mut Writer, pdu: &S1apPdu) {
    let opened = w.open_u32();
    pdu.encode_into(w);
    w.close_u32(opened);
}

impl WireMsg {
    /// Append the canonical byte form to `w`: the envelope, and the PDU
    /// or blob encoded in place behind it.
    pub fn encode_into(&self, w: &mut Writer) {
        match self {
            WireMsg::Hello { role, id } => {
                w.u8(TAG_HELLO);
                w.u8(match role {
                    WireRole::Enb => 0,
                    WireRole::Mmp => 1,
                });
                w.u32(*id);
            }
            WireMsg::Uplink {
                enb_id,
                attach_hint,
                pdu,
            } => {
                w.u8(TAG_UPLINK);
                w.u32(*enb_id);
                put_opt_u32(w, *attach_hint);
                put_pdu(w, pdu);
            }
            WireMsg::Deliver {
                vm,
                guti_hint,
                enb_id,
                pdu,
            } => {
                put_deliver_fields(w, *vm, *guti_hint, *enb_id);
                put_pdu(w, pdu);
            }
            WireMsg::ToEnb { enb_id, pdu } => {
                w.u8(TAG_TO_ENB);
                w.u32(*enb_id);
                put_pdu(w, pdu);
            }
            WireMsg::Settled { m_tmsi, active } => {
                w.u8(TAG_SETTLED);
                w.u32(*m_tmsi);
                w.u8(u8::from(*active));
            }
            WireMsg::Replicate { vm, blob } => {
                w.u8(TAG_REPLICATE);
                w.u32(*vm);
                let opened = w.open_u32();
                w.slice(blob);
                w.close_u32(opened);
            }
            WireMsg::DropCtx { vm, m_tmsi } => {
                w.u8(TAG_DROP_CTX);
                w.u32(*vm);
                w.u32(*m_tmsi);
            }
            WireMsg::ProcFailed { m_tmsi } => {
                w.u8(TAG_PROC_FAILED);
                w.u32(*m_tmsi);
            }
            WireMsg::VmDown { vm } => {
                w.u8(TAG_VM_DOWN);
                w.u32(*vm);
            }
            WireMsg::VmUp { vm } => {
                w.u8(TAG_VM_UP);
                w.u32(*vm);
            }
        }
    }

    /// Encode to the canonical byte form, in a buffer of its own.
    #[must_use]
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::new();
        self.encode_into(&mut w);
        w.finish()
    }

    /// Strict decode: [`WireView::parse`], then the PDU inside. A PDU
    /// or blob shares `buf`'s storage.
    #[allow(clippy::needless_pass_by_value)] // the message shares `buf`'s storage
    pub fn decode(buf: Bytes) -> Result<WireMsg, NasError> {
        // A body is the tail of its message.
        let tail = |body: &[u8]| buf.slice(buf.len() - body.len()..);
        Ok(match WireView::parse(&buf)? {
            WireView::Hello { role, id } => WireMsg::Hello { role, id },
            WireView::Uplink {
                enb_id,
                attach_hint,
                pdu,
            } => WireMsg::Uplink {
                enb_id,
                attach_hint,
                pdu: S1apPdu::decode(tail(pdu))?,
            },
            WireView::Deliver {
                vm,
                guti_hint,
                enb_id,
                pdu,
            } => WireMsg::Deliver {
                vm,
                guti_hint,
                enb_id,
                pdu: S1apPdu::decode(tail(pdu))?,
            },
            WireView::ToEnb { enb_id, pdu } => WireMsg::ToEnb {
                enb_id,
                pdu: S1apPdu::decode(tail(pdu))?,
            },
            WireView::Settled { m_tmsi, active } => WireMsg::Settled { m_tmsi, active },
            WireView::Replicate { vm, blob } => WireMsg::Replicate {
                vm,
                blob: tail(blob),
            },
            WireView::DropCtx { vm, m_tmsi } => WireMsg::DropCtx { vm, m_tmsi },
            WireView::ProcFailed { m_tmsi } => WireMsg::ProcFailed { m_tmsi },
            WireView::VmDown { vm } => WireMsg::VmDown { vm },
            WireView::VmUp { vm } => WireMsg::VmUp { vm },
        })
    }

    /// The device whose procedure this message opens at a worker, if it
    /// opens one: a `Deliver` of an Initial UE Message. Shedding such a
    /// message strands the device unless its cell is told.
    #[must_use]
    pub fn opens_procedure_of(&self) -> Option<u32> {
        match self {
            WireMsg::Deliver {
                guti_hint,
                pdu: S1apPdu::InitialUeMessage { s_tmsi, .. },
                ..
            } => guti_hint.or(s_tmsi.map(|(_, m)| m)),
            WireMsg::Deliver { .. }
            | WireMsg::Hello { .. }
            | WireMsg::Uplink { .. }
            | WireMsg::ToEnb { .. }
            | WireMsg::Settled { .. }
            | WireMsg::Replicate { .. }
            | WireMsg::DropCtx { .. }
            | WireMsg::ProcFailed { .. }
            | WireMsg::VmDown { .. }
            | WireMsg::VmUp { .. } => None,
        }
    }
}
