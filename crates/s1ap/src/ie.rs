//! S1AP information-element framing.
//!
//! Real S1AP encodes IEs in aligned PER with `(id, criticality, value)`
//! triplets; we keep the id/value structure with a byte-aligned
//! `id(2) || length(2) || value` frame (documented substitution — see
//! DESIGN.md). The protocol ids below are the genuine S1AP
//! ProtocolIE-IDs (TS 36.413 §9.3.7), so traces remain recognisable.
//!
//! Both directions work where the bytes are. Encoding appends each IE
//! to the message's own buffer and fills the length in afterwards;
//! decoding checks the framing of the whole IE region once ([`Ies`])
//! and then reads values out of it by id — no list of IEs is built and
//! no value is copied.
//!
//! lint: hot-path

use scale_nas::wire::{NasError, View, Writer};
use std::ops::Range;

/// Genuine S1AP ProtocolIE-ID values for the IEs we carry.
pub mod ie_id {
    pub const MME_UE_S1AP_ID: u16 = 0;
    pub const ENB_UE_S1AP_ID: u16 = 8;
    pub const CAUSE: u16 = 2;
    pub const NAS_PDU: u16 = 26;
    pub const TAI: u16 = 67;
    pub const EUTRAN_CGI: u16 = 100;
    pub const RRC_ESTABLISHMENT_CAUSE: u16 = 134;
    pub const S_TMSI: u16 = 96;
    pub const UE_PAGING_ID: u16 = 80;
    pub const TAI_LIST: u16 = 46;
    pub const ERAB_TO_BE_SETUP_LIST: u16 = 24;
    pub const ERAB_SETUP_LIST: u16 = 28;
    pub const UE_AGGREGATE_MAX_BITRATE: u16 = 66;
    pub const SECURITY_KEY: u16 = 73;
    pub const GLOBAL_ENB_ID: u16 = 59;
    pub const ENB_NAME: u16 = 60;
    pub const MME_NAME: u16 = 61;
    pub const SUPPORTED_TAS: u16 = 64;
    pub const SERVED_GUMMEIS: u16 = 105;
    pub const RELATIVE_MME_CAPACITY: u16 = 87;
    pub const TARGET_ID: u16 = 4;
    pub const HANDOVER_TYPE: u16 = 1;
    pub const SOURCE_TO_TARGET_CONTAINER: u16 = 104;
    pub const OVERLOAD_RESPONSE: u16 = 101;
}

/// Append one IE: its id, its length, and whatever `value` writes. The
/// length is filled in once the value is there, so a value of any shape
/// is written once, in place. Panics on a value over 65,535 bytes (the
/// largest we carry is a NAS PDU).
pub fn put_ie(w: &mut Writer, id: u16, value: impl FnOnce(&mut Writer)) {
    w.u16(id);
    let opened = w.open_u16();
    value(w);
    w.close_u16(opened);
}

/// Append an IE with a u8 value.
pub fn put_ie_u8(w: &mut Writer, id: u16, v: u8) {
    put_ie(w, id, |w| w.u8(v));
}

/// Append an IE with a u32 value.
pub fn put_ie_u32(w: &mut Writer, id: u16, v: u32) {
    put_ie(w, id, |w| w.u32(v));
}

/// Append an IE whose value is `v` as it stands.
pub fn put_ie_bytes(w: &mut Writer, id: u16, v: &[u8]) {
    put_ie(w, id, |w| w.slice(v));
}

/// The IE region of one PDU, its framing checked end to end: every
/// length stays inside the region and the last value ends exactly where
/// the region does. Lookups are by id and return the first match, as
/// offsets into the region (what a decoder that shares the input's
/// storage slices by) or as the value itself.
#[derive(Debug, Clone, Copy)]
pub struct Ies<'a> {
    region: &'a [u8],
}

impl<'a> Ies<'a> {
    /// Check the framing of `region`. Values are not looked at.
    pub fn parse(region: &'a [u8]) -> Result<Ies<'a>, NasError> {
        let mut v = View::new(region);
        while v.remaining() > 0 {
            v.u16("s1ap ie id")?;
            let len = v.u16("s1ap ie length")? as usize;
            v.take("s1ap ie value", len)?;
        }
        Ok(Ies { region })
    }

    /// `(id, where its value lies in the region)`, in wire order.
    pub fn iter(&self) -> impl Iterator<Item = (u16, Range<usize>)> + 'a {
        let region = self.region;
        let mut at = 0;
        std::iter::from_fn(move || {
            let head = region.get(at..at + 4)?;
            let id = u16::from_be_bytes([head[0], head[1]]);
            let len = usize::from(u16::from_be_bytes([head[2], head[3]]));
            let value = at + 4..at + 4 + len;
            at = value.end;
            Some((id, value))
        })
    }

    /// Where the value of the first IE `id` lies in the region.
    pub fn find(&self, id: u16) -> Option<Range<usize>> {
        self.iter().find(|(i, _)| *i == id).map(|(_, at)| at)
    }

    /// [`Ies::find`], or the error a mandatory IE's absence is.
    pub fn require(&self, id: u16, what: &'static str) -> Result<Range<usize>, NasError> {
        self.find(id).ok_or(NasError::Invalid {
            what,
            value: u64::from(id),
        })
    }

    /// The value of the mandatory IE `id`.
    pub fn value(&self, id: u16, what: &'static str) -> Result<&'a [u8], NasError> {
        let at = self.require(id, what)?;
        Ok(&self.region[at])
    }

    /// The value of the optional IE `id`.
    pub fn opt_value(&self, id: u16) -> Option<&'a [u8]> {
        self.find(id).map(|at| &self.region[at])
    }

    pub fn u8(&self, id: u16, what: &'static str) -> Result<u8, NasError> {
        View::new(self.value(id, what)?).u8(what)
    }

    pub fn u32(&self, id: u16, what: &'static str) -> Result<u32, NasError> {
        View::new(self.value(id, what)?).u32(what)
    }

    pub fn opt_u32(&self, id: u16, what: &'static str) -> Result<Option<u32>, NasError> {
        self.opt_value(id)
            .map(|v| View::new(v).u32(what))
            .transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(build: impl FnOnce(&mut Writer)) -> Vec<u8> {
        let mut bytes = Vec::new();
        Writer::extend(&mut bytes, build);
        bytes
    }

    #[test]
    fn an_ie_is_id_length_value() {
        let bytes = region(|w| put_ie_bytes(w, ie_id::NAS_PDU, &[1, 2, 3]));
        assert_eq!(bytes, [0, 26, 0, 3, 1, 2, 3]);
        let set = Ies::parse(&bytes).unwrap();
        assert_eq!(set.iter().collect::<Vec<_>>(), [(ie_id::NAS_PDU, 4..7)]);
        assert_eq!(set.value(ie_id::NAS_PDU, "nas").unwrap(), [1, 2, 3]);
    }

    #[test]
    fn lookups_are_by_id_first_match_wins() {
        let bytes = region(|w| {
            put_ie_u32(w, ie_id::MME_UE_S1AP_ID, 77);
            put_ie_u8(w, ie_id::CAUSE, 3);
            put_ie_u8(w, ie_id::CAUSE, 9);
        });
        let set = Ies::parse(&bytes).unwrap();
        assert_eq!(set.u32(ie_id::MME_UE_S1AP_ID, "mme id").unwrap(), 77);
        assert_eq!(set.u8(ie_id::CAUSE, "cause").unwrap(), 3);
        assert!(set.u32(ie_id::NAS_PDU, "nas").is_err());
        assert_eq!(set.opt_u32(ie_id::ENB_UE_S1AP_ID, "enb id").unwrap(), None);
        // A value shorter than the type read from it is an error, not
        // a short read.
        assert!(set.u32(ie_id::CAUSE, "cause").is_err());
        assert!(set.opt_u32(ie_id::CAUSE, "cause").is_err());
    }

    #[test]
    fn broken_framing_is_refused_wherever_it_breaks() {
        let bytes = region(|w| {
            put_ie_u32(w, ie_id::MME_UE_S1AP_ID, 1);
            put_ie_bytes(w, ie_id::NAS_PDU, b"nas-pdu");
        });
        assert!(Ies::parse(&bytes).is_ok());
        assert!(Ies::parse(&[]).is_ok(), "a PDU may carry no IEs");
        for cut in 1..bytes.len() {
            // The one cut that leaves whole IEs is the IE boundary.
            assert_eq!(Ies::parse(&bytes[..cut]).is_ok(), cut == 8, "cut at {cut}");
        }
        // A length that runs past the end.
        assert!(Ies::parse(&[0, 26, 0, 10, 1]).is_err());
    }
}
