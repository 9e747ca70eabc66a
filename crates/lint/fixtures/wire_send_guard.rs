//! Seeded violation: a blocking link send under a lock guard in a wire-
//! deployment module (the `await-guard` rule's second trigger). The
//! send waits at a full egress buffer for as long as the peer does not
//! read — while holding the routing lock that peer's own reader needs.
//! The `try_` form next to it is what the rule lets through.

pub fn relay(router: &std::sync::Mutex<Vec<u32>>, link: &Link, run: Vec<Vec<u8>>) {
    let table = router.lock();
    let _ = link.try_send_unit(run.len(), |unit| unit.extend(run.iter().flatten()));
    let _ = link.send_unit(run.len(), |unit| unit.extend(run.iter().flatten()));
    drop(table);
}

pub struct Link;

impl Link {
    pub fn try_send_unit(&self, _messages: usize, _fill: impl FnOnce(&mut Vec<u8>)) -> Result<(), ()> {
        Ok(())
    }

    pub fn send_unit(&self, _messages: usize, _fill: impl FnOnce(&mut Vec<u8>)) -> Result<(), ()> {
        Ok(())
    }
}
