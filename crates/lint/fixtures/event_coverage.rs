//! Fixture: an event vocabulary whose variant no surface references —
//! planted as `crates/mgps-runtime/src/event.rs` it holes all four coverage
//! columns and trips `event-coverage` and nothing else.
pub enum EventKind {
    Orphan { spe: usize },
}
