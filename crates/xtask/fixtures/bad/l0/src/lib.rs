//! Malformed `apc-lint:` directives: the L0 meta-rule must reject each.

/// Clean on its own; only the directives below are broken.
pub fn ok() -> u64 {
    // apc-lint: allow(L3)
    // apc-lint: allow(L99) -- no such rule
    // apc-lint: deny(L3) -- not a verb the engine supports
    // apc-lint: allow(L12)
    1
}
