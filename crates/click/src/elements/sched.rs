//! Scheduling and annotation elements: `RoundRobinSwitch`,
//! `RandomSwitch`, `Meter`, `Paint`, and `CheckPaint`.

use innet_packet::Packet;
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::{
    args::ConfigArgs,
    element::{Context, Element, ElementError, PortCount, Sink},
    elements::TokenBucket,
};

/// Annotation byte used by `Paint`/`CheckPaint` (Click's PAINT
/// annotation).
pub const PAINT_ANNO: usize = 16;

/// `RoundRobinSwitch(N)` — spreads packets across N outputs in turn
/// (Click's load-spreading element; useful in front of replicated
/// processing).
#[derive(Debug)]
pub struct RoundRobinSwitch {
    n: usize,
    next: usize,
}

impl RoundRobinSwitch {
    /// Parses `RoundRobinSwitch(N)`.
    pub fn from_args(args: &ConfigArgs) -> Result<RoundRobinSwitch, ElementError> {
        args.expect_len_range(0, 1)?;
        let n: usize = args.parse_or(0, 2)?;
        if n == 0 {
            return Err(ElementError::BadArgs {
                class: "RoundRobinSwitch",
                message: "needs at least one output".to_string(),
            });
        }
        Ok(RoundRobinSwitch { n, next: 0 })
    }
}

impl Element for RoundRobinSwitch {
    fn ports(&self) -> PortCount {
        PortCount::new(1, self.n)
    }

    fn push(&mut self, _port: usize, pkt: Packet, _ctx: &Context, out: &mut dyn Sink) {
        let port = self.next;
        self.next = (self.next + 1) % self.n;
        out.push(port, pkt);
    }
}

/// `RandomSwitch(N[, SEED])` — spreads packets across N outputs uniformly
/// at random (deterministic given the seed).
#[derive(Debug)]
pub struct RandomSwitch {
    n: usize,
    rng: StdRng,
}

impl RandomSwitch {
    /// Parses `RandomSwitch(N[, SEED])`.
    pub fn from_args(args: &ConfigArgs) -> Result<RandomSwitch, ElementError> {
        args.expect_len_range(0, 2)?;
        let n: usize = args.parse_or(0, 2)?;
        let seed: u64 = args.parse_or(1, 0)?;
        if n == 0 {
            return Err(ElementError::BadArgs {
                class: "RandomSwitch",
                message: "needs at least one output".to_string(),
            });
        }
        Ok(RandomSwitch {
            n,
            rng: StdRng::seed_from_u64(seed),
        })
    }
}

impl Element for RandomSwitch {
    fn ports(&self) -> PortCount {
        PortCount::new(1, self.n)
    }

    fn push(&mut self, _port: usize, pkt: Packet, _ctx: &Context, out: &mut dyn Sink) {
        let port = self.rng.gen_range(0..self.n);
        out.push(port, pkt);
    }
}

/// `Meter(RATE_PPS)` — classifies by measured rate: packets within the
/// rate leave on output 0, the excess on output 1 (Click's `Meter`; the
/// non-dropping cousin of `RateLimiter`).
#[derive(Debug)]
pub struct Meter {
    bucket: TokenBucket,
    conforming: u64,
    excess: u64,
}

impl Meter {
    /// Parses `Meter(RATE_PPS)`.
    pub fn from_args(args: &ConfigArgs) -> Result<Meter, ElementError> {
        args.expect_len(1)?;
        let pps: f64 = args.parse_at(0)?;
        if pps <= 0.0 {
            return Err(ElementError::BadArgs {
                class: "Meter",
                message: "rate must be positive".to_string(),
            });
        }
        Ok(Meter {
            bucket: TokenBucket::new(pps, pps.max(1.0)),
            conforming: 0,
            excess: 0,
        })
    }

    /// Counters: (conforming, excess).
    pub fn counters(&self) -> (u64, u64) {
        (self.conforming, self.excess)
    }
}

impl Element for Meter {
    fn ports(&self) -> PortCount {
        PortCount::new(1, 2)
    }

    fn push(&mut self, _port: usize, pkt: Packet, ctx: &Context, out: &mut dyn Sink) {
        if self.bucket.try_take(1.0, ctx.now_ns) {
            self.conforming += 1;
            out.push(0, pkt);
        } else {
            self.excess += 1;
            out.push(1, pkt);
        }
    }
}

/// `Paint(COLOR)` — writes the paint annotation (Click uses it to mark
/// which interface a packet arrived on, to suppress reflection).
#[derive(Debug)]
pub struct Paint {
    color: u8,
}

impl Paint {
    /// Parses `Paint(COLOR)`.
    pub fn from_args(args: &ConfigArgs) -> Result<Paint, ElementError> {
        args.expect_len(1)?;
        Ok(Paint {
            color: args.parse_at(0)?,
        })
    }
}

impl Element for Paint {
    fn ports(&self) -> PortCount {
        PortCount::ONE_ONE
    }

    fn push(&mut self, _port: usize, mut pkt: Packet, _ctx: &Context, out: &mut dyn Sink) {
        pkt.set_anno_u8(PAINT_ANNO, self.color);
        out.push(0, pkt);
    }
}

/// `CheckPaint(COLOR)` — packets carrying the paint color leave on
/// output 1, others on output 0 (mirroring Click's semantics of
/// diverting marked packets).
#[derive(Debug)]
pub struct CheckPaint {
    color: u8,
}

impl CheckPaint {
    /// Parses `CheckPaint(COLOR)`.
    pub fn from_args(args: &ConfigArgs) -> Result<CheckPaint, ElementError> {
        args.expect_len(1)?;
        Ok(CheckPaint {
            color: args.parse_at(0)?,
        })
    }
}

impl Element for CheckPaint {
    fn ports(&self) -> PortCount {
        PortCount::new(1, 2)
    }

    fn push(&mut self, _port: usize, pkt: Packet, _ctx: &Context, out: &mut dyn Sink) {
        if pkt.anno_u8(PAINT_ANNO) == self.color {
            out.push(1, pkt);
        } else {
            out.push(0, pkt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::VecSink;
    use innet_packet::PacketBuilder;

    #[test]
    fn round_robin_cycles() {
        let mut rr =
            RoundRobinSwitch::from_args(&ConfigArgs::parse("RoundRobinSwitch", "3")).unwrap();
        let mut s = VecSink::new();
        for _ in 0..6 {
            rr.push(0, PacketBuilder::udp().build(), &Context::default(), &mut s);
        }
        let ports: Vec<usize> = s.pushed.iter().map(|(p, _)| *p).collect();
        assert_eq!(ports, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn random_switch_covers_outputs() {
        let mut rs = RandomSwitch::from_args(&ConfigArgs::parse("RandomSwitch", "4, 7")).unwrap();
        let mut s = VecSink::new();
        for _ in 0..200 {
            rs.push(0, PacketBuilder::udp().build(), &Context::default(), &mut s);
        }
        let mut seen = [0usize; 4];
        for (p, _) in &s.pushed {
            seen[*p] += 1;
        }
        assert!(seen.iter().all(|&c| c > 20), "{seen:?}");
    }

    #[test]
    fn meter_splits_by_rate() {
        let mut m = Meter::from_args(&ConfigArgs::parse("Meter", "10")).unwrap();
        let mut s = VecSink::new();
        // 30 packets at t=0 against a 10-token bucket.
        for _ in 0..30 {
            m.push(0, PacketBuilder::udp().build(), &Context::at(0), &mut s);
        }
        let (ok, over) = m.counters();
        assert_eq!(ok, 10);
        assert_eq!(over, 20);
        assert_eq!(s.pushed.len(), 30, "Meter never drops");
    }

    #[test]
    fn paint_checkpaint_roundtrip() {
        let mut p = Paint::from_args(&ConfigArgs::parse("Paint", "7")).unwrap();
        let mut c = CheckPaint::from_args(&ConfigArgs::parse("CheckPaint", "7")).unwrap();
        let mut s = VecSink::new();
        p.push(0, PacketBuilder::udp().build(), &Context::default(), &mut s);
        let painted = s.pushed.pop().unwrap().1;
        c.push(0, painted, &Context::default(), &mut s);
        assert_eq!(s.pushed[0].0, 1, "painted packets divert to output 1");
        c.push(0, PacketBuilder::udp().build(), &Context::default(), &mut s);
        assert_eq!(s.pushed[1].0, 0, "unpainted packets continue on output 0");
    }

    #[test]
    fn bad_args() {
        assert!(RoundRobinSwitch::from_args(&ConfigArgs::parse("RoundRobinSwitch", "0")).is_err());
        assert!(Meter::from_args(&ConfigArgs::parse("Meter", "-1")).is_err());
        assert!(Paint::from_args(&ConfigArgs::parse("Paint", "")).is_err());
    }
}
