//! `--seed` is the only source of randomness: the same seed gives the
//! same inputs and the same exact-repeat counts, and two seeds differ.

use innet_benchmark::harness::Metric;
use innet_benchmark::{admission, fleet, packet, Ladder, Scale, EXACT_REPEAT};

fn exact(ladder: &Ladder) -> Vec<Metric> {
    let picked: Vec<Metric> = ladder
        .metrics
        .iter()
        .filter(|m| EXACT_REPEAT.contains(&m.name))
        .cloned()
        .collect();
    assert!(!picked.is_empty(), "every ladder has exact-repeat counts");
    picked
}

fn pinned(run: impl Fn(u64) -> Ladder) {
    let (a, b, other) = (run(7), run(7), run(8));
    assert_eq!(a.digest, b.digest, "same seed, same inputs");
    assert_ne!(a.digest, other.digest, "another seed, other inputs");
    assert_eq!(exact(&a), exact(&b), "counts repeat exactly for a seed");
    assert_eq!(a.failed + b.failed + other.failed, 0);
}

#[test]
fn packet_inputs_and_counts_follow_the_seed() {
    for name in ["pkt-demux64t", "pkt-fwd1500", "pkt-nat-churn"] {
        pinned(|seed| packet::ladder(packet::inputs(name, seed, Scale::Small), 1).unwrap());
    }
}

#[test]
fn admission_inputs_and_counts_follow_the_seed() {
    for name in ["adm-stock", "adm-reach"] {
        pinned(|seed| admission::ladder(admission::inputs(name, seed, Scale::Small), 1).unwrap());
    }
}

#[test]
fn fleet_inputs_and_counts_follow_the_seed() {
    pinned(|seed| fleet::ladder(fleet::inputs(seed, Scale::Small), 1).unwrap());
}
