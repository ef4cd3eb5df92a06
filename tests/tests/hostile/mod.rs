//! Hostile tenant input shared by the robustness tests: fragments no
//! element expects, to be refused or accepted but never to panic on.

/// Element arguments that are not remotely parseable as what the element
/// expects.
pub const HOSTILE_ARGS: &[&str] = &[
    "-1",
    "999999999999999999999999",
    "\u{0}\u{ffff}",
    "$SELF$SELF$SELF",
    "",
];

/// Hostile rule fragments for the tcpdump-style classifiers: nonsense
/// tokens, out-of-range values, and a few valid rules so construction
/// sometimes succeeds and the push path actually runs.
pub const HOSTILE_IP_RULES: &[&str] = &[
    "dst host 203.0.113.7",
    "allow udp dst port 65535",
    "dst port 18446744073709551615",
    "src net 256.256.256.256/99",
    "proto 999",
    "tcp syn",
    "udp",
    "allow",
    "deny all",
    "-",
    "",
    "%%%%",
    "\u{0}\u{ffff}",
];
