//! # scale-epc
//!
//! The EPC substrates the paper's testbed provided via OpenEPC, built
//! from scratch (see DESIGN.md):
//!
//! - [`hss`] — the HSS front end: Milenage authentication vectors with
//!   Annex C sequence numbers, nothing kept per subscriber;
//! - [`sgw`] — S-GW session management and Downlink Data Notifications;
//! - [`ue`] — the device model with USIM-side EPS AKA and the
//!   Idle/Active behaviours that generate control-plane load;
//! - [`enodeb`] — the eNodeB emulator (RRC bookkeeping, the eNodeB side
//!   of every S1AP procedure, paging fan-in, handover admission);
//! - [`emulator`] — the cell-level drive: UE population striping, the
//!   seeded SR/TAU op mix and the closed/open-loop session state
//!   machine shared by the in-process scale-out driver and the
//!   wire-level eNodeB process;
//! - [`harness`] — an in-process network wiring all of the above around
//!   any [`harness::ControlPlane`] (bare MME, legacy pool, or SCALE).

#![forbid(unsafe_code)]

pub mod emulator;
pub mod enodeb;
pub mod harness;
pub mod hss;
pub mod sgw;
pub mod ue;

pub use emulator::{
    home_cell, imsi_of, mix64, op_is_tau, DriveMode, EmuCounts, EmuEvent, EmulatorConfig,
    EnbEmulator, ProcKind, SlotView, ENB_BASE, MTMSI_BASE,
};
pub use enodeb::{EnbEvent, EnodeB};
pub use harness::{ControlPlane, Lifecycle, Network};
pub use hss::{provision_k, split_sqn, Hss, SeqClock, AMF, OP};
pub use sgw::{Session, Sgw, SgwStats};
pub use ue::{Ue, UeEvent, UeState};
