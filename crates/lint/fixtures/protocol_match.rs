// Fixture: must trip [exhaustive-protocol-match] and nothing else.
// A dispatch over the wire protocol with a catch-all arm — exactly the
// bug shape the WildcardSwallow mutation seeds in scale-check.

pub fn dispatch(msg: WireMsg) -> u32 {
    match msg {
        WireMsg::Hello { .. } => 1,
        WireMsg::Uplink { .. } => 2,
        _ => 0, // swallows Settled / ProcFailed / every future variant
    }
}

pub fn dispatch_binding(msg: WireMsg) -> u32 {
    match msg {
        WireMsg::Deliver { .. } => 1,
        other => drop_it(other), // bare binding is just a named wildcard
    }
}

// A match that names its remainder explicitly is fine: binding with an
// exhaustive alternation keeps "new variant" a compile error.
pub fn dispatch_ok(msg: EmmMessage) -> u32 {
    match msg {
        EmmMessage::AttachRequest { .. } => 1,
        other @ (EmmMessage::AttachAccept { .. } | EmmMessage::AttachComplete) => tally(other),
    }
}

// Matches over non-protocol enums keep their wildcard freedom.
pub fn unrelated(x: Option<u32>) -> u32 {
    match x {
        Some(3) => 3,
        _ => 0,
    }
}

fn drop_it(_m: WireMsg) -> u32 {
    0
}

fn tally(_m: EmmMessage) -> u32 {
    0
}
