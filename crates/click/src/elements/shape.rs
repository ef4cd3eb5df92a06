//! Traffic shaping: packet-rate policing and byte-rate shaping, both built
//! on a virtual-time token bucket.

use std::collections::VecDeque;

use innet_packet::Packet;

use crate::{
    args::ConfigArgs,
    element::{Context, Element, ElementError, PortCount, Sink},
};

/// A token bucket over virtual time with fractional accumulation.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    /// Tokens added per second.
    rate: f64,
    /// Maximum tokens held.
    burst: f64,
    tokens: f64,
    last_ns: u64,
}

impl TokenBucket {
    /// Creates a bucket refilled at `rate` tokens/second, holding at most
    /// `burst` tokens (starts full).
    pub fn new(rate: f64, burst: f64) -> TokenBucket {
        TokenBucket {
            rate,
            burst,
            tokens: burst,
            last_ns: 0,
        }
    }

    fn refill(&mut self, now_ns: u64) {
        if now_ns > self.last_ns {
            let dt = (now_ns - self.last_ns) as f64 / 1e9;
            self.tokens = (self.tokens + dt * self.rate).min(self.burst);
            self.last_ns = now_ns;
        }
    }

    /// Tries to take `n` tokens at virtual time `now_ns`.
    pub fn try_take(&mut self, n: f64, now_ns: u64) -> bool {
        self.refill(now_ns);
        if self.tokens >= n {
            self.tokens -= n;
            true
        } else {
            false
        }
    }

    /// Virtual time at which `n` tokens will be available (assuming no
    /// other consumption).
    pub fn available_at(&self, n: f64) -> u64 {
        if self.tokens >= n {
            self.last_ns
        } else {
            let deficit = n - self.tokens;
            self.last_ns + (deficit / self.rate * 1e9).ceil() as u64
        }
    }

    /// Current token count (after refilling to `now_ns`).
    pub fn peek(&mut self, now_ns: u64) -> f64 {
        self.refill(now_ns);
        self.tokens
    }
}

/// `RateLimiter(PPS[, BURST])` — polices to a packet rate; non-conforming
/// packets are dropped. Table 1's "rate limiter" middlebox.
#[derive(Debug)]
pub struct RateLimiter {
    bucket: TokenBucket,
    passed: u64,
    dropped: u64,
}

impl RateLimiter {
    /// Parses `RateLimiter(PPS[, BURST])`.
    pub fn from_args(args: &ConfigArgs) -> Result<RateLimiter, ElementError> {
        args.expect_len_range(1, 2)?;
        let pps: f64 = args.parse_at(0)?;
        let burst: f64 = args.parse_or(1, pps.max(1.0))?;
        // The explicit NaN check matters: `x <= 0` waves NaN through.
        if pps.is_nan() || pps <= 0.0 {
            return Err(ElementError::BadArgs {
                class: "RateLimiter",
                message: "rate must be positive".to_string(),
            });
        }
        if burst.is_nan() || burst <= 0.0 {
            // A non-positive burst caps the bucket at zero tokens: every
            // packet would be dropped forever, silently.
            return Err(ElementError::BadArgs {
                class: "RateLimiter",
                message: "burst must be positive".to_string(),
            });
        }
        Ok(RateLimiter {
            bucket: TokenBucket::new(pps, burst),
            passed: 0,
            dropped: 0,
        })
    }

    /// Packets passed so far.
    pub fn passed(&self) -> u64 {
        self.passed
    }

    /// Packets dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl Element for RateLimiter {
    fn ports(&self) -> PortCount {
        PortCount::ONE_ONE
    }

    fn push(&mut self, _port: usize, pkt: Packet, ctx: &Context, out: &mut dyn Sink) {
        if self.bucket.try_take(1.0, ctx.now_ns) {
            self.passed += 1;
            out.push(0, pkt);
        } else {
            self.dropped += 1;
        }
    }
}

/// `BandwidthShaper(BPS[, QUEUE_CAP])` — shapes to a bit rate: conforming
/// packets pass immediately, the rest queue and are released on ticks as
/// tokens accumulate. The queue tail-drops at `QUEUE_CAP` packets
/// (default 1024).
#[derive(Debug)]
pub struct BandwidthShaper {
    bucket: TokenBucket,
    queue: VecDeque<Packet>,
    cap: usize,
    dropped: u64,
}

impl BandwidthShaper {
    /// Parses `BandwidthShaper(BPS[, QUEUE_CAP])`.
    pub fn from_args(args: &ConfigArgs) -> Result<BandwidthShaper, ElementError> {
        args.expect_len_range(1, 2)?;
        let bps: f64 = args.parse_at(0)?;
        // The explicit NaN check matters: `x <= 0` would wave NaN through
        // into a bucket that never passes a byte.
        if bps.is_nan() || bps <= 0.0 {
            return Err(ElementError::BadArgs {
                class: "BandwidthShaper",
                message: "rate must be positive".to_string(),
            });
        }
        let cap: usize = args.parse_or(1, 1024)?;
        Ok(BandwidthShaper {
            // Byte-based bucket; allow one MTU of burst.
            bucket: TokenBucket::new(bps / 8.0, 1514.0_f64.max(bps / 8.0 / 100.0)),
            queue: VecDeque::new(),
            cap: cap.max(1),
            dropped: 0,
        })
    }

    /// Packets tail-dropped by the shaper queue.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Packets currently queued.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    fn drain(&mut self, now_ns: u64, out: &mut dyn Sink) {
        while let Some(front) = self.queue.front() {
            let need = front.len() as f64;
            if self.bucket.try_take(need, now_ns) {
                let pkt = self.queue.pop_front().expect("front exists");
                out.push(0, pkt);
            } else {
                break;
            }
        }
    }
}

impl Element for BandwidthShaper {
    fn ports(&self) -> PortCount {
        PortCount::ONE_ONE
    }

    fn push(&mut self, _port: usize, pkt: Packet, ctx: &Context, out: &mut dyn Sink) {
        self.drain(ctx.now_ns, out);
        if self.queue.is_empty() && self.bucket.try_take(pkt.len() as f64, ctx.now_ns) {
            out.push(0, pkt);
        } else if self.queue.len() < self.cap {
            self.queue.push_back(pkt);
        } else {
            self.dropped += 1;
        }
    }

    fn tick(&mut self, ctx: &Context, out: &mut dyn Sink) {
        self.drain(ctx.now_ns, out);
    }

    fn next_tick_ns(&self) -> Option<u64> {
        self.queue
            .front()
            .map(|p| self.bucket.available_at(p.len() as f64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::VecSink;
    use innet_packet::PacketBuilder;

    #[test]
    fn token_bucket_conserves() {
        let mut tb = TokenBucket::new(10.0, 10.0);
        let mut taken = 0;
        // Over 10 virtual seconds at 10 tokens/s with burst 10, at most
        // 10 (burst) + 100 (refill) tokens can be taken.
        for ms in (0..10_000u64).step_by(7) {
            if tb.try_take(1.0, ms * 1_000_000) {
                taken += 1;
            }
        }
        assert!(taken <= 110, "took {taken}");
        assert!(taken >= 100, "took {taken}");
    }

    #[test]
    fn rate_limiter_polices() {
        let args = ConfigArgs::parse("RateLimiter", "100, 5");
        let mut rl = RateLimiter::from_args(&args).unwrap();
        let mut s = VecSink::new();
        // Send a 10-packet burst at t=0; bucket holds 5 tokens.
        for _ in 0..10 {
            rl.push(0, PacketBuilder::udp().build(), &Context::at(0), &mut s);
        }
        assert_eq!(rl.passed(), 5);
        assert_eq!(rl.dropped(), 5);
        // After 50 ms at 100 pps, 5 more tokens accumulated (burst-capped).
        for _ in 0..10 {
            rl.push(
                0,
                PacketBuilder::udp().build(),
                &Context::at(50_000_000),
                &mut s,
            );
        }
        assert_eq!(rl.passed(), 10);
    }

    #[test]
    fn shaper_queues_then_releases() {
        // 8000 bit/s = 1000 bytes/s.
        let args = ConfigArgs::parse("BandwidthShaper", "8000, 10");
        let mut sh = BandwidthShaper::from_args(&args).unwrap();
        let mut s = VecSink::new();
        let pkt = PacketBuilder::udp().pad_to(1000).build();
        // First packet passes on the initial burst; the second queues.
        sh.push(0, pkt.clone(), &Context::at(0), &mut s);
        sh.push(0, pkt.clone(), &Context::at(0), &mut s);
        assert_eq!(s.pushed.len(), 1);
        assert_eq!(sh.queued(), 1);
        assert!(sh.next_tick_ns().is_some());
        // After one virtual second, 1000 bytes of tokens accumulated.
        sh.tick(&Context::at(1_100_000_000), &mut s);
        assert_eq!(s.pushed.len(), 2);
        assert_eq!(sh.queued(), 0);
    }

    #[test]
    fn shaper_tail_drops() {
        let args = ConfigArgs::parse("BandwidthShaper", "8, 2");
        let mut sh = BandwidthShaper::from_args(&args).unwrap();
        let mut s = VecSink::new();
        let pkt = PacketBuilder::udp().pad_to(1472).build();
        for _ in 0..10 {
            sh.push(0, pkt.clone(), &Context::at(0), &mut s);
        }
        assert!(sh.dropped() > 0);
        assert_eq!(sh.queued(), 2);
    }

    #[test]
    fn zero_rate_rejected() {
        assert!(RateLimiter::from_args(&ConfigArgs::parse("RateLimiter", "0")).is_err());
        assert!(BandwidthShaper::from_args(&ConfigArgs::parse("BandwidthShaper", "-5")).is_err());
        assert!(RateLimiter::from_args(&ConfigArgs::parse("RateLimiter", "NaN")).is_err());
        assert!(BandwidthShaper::from_args(&ConfigArgs::parse("BandwidthShaper", "NaN")).is_err());
    }

    #[test]
    fn non_positive_burst_rejected() {
        // A dead bucket (burst ≤ 0 caps tokens at zero) must be a config
        // error, not a silent 100%-drop limiter.
        for burst in ["0", "-1", "NaN"] {
            assert!(
                RateLimiter::from_args(&ConfigArgs::parse("RateLimiter", &format!("100, {burst}")))
                    .is_err(),
                "burst {burst}"
            );
        }
        // A valid explicit burst still parses.
        assert!(RateLimiter::from_args(&ConfigArgs::parse("RateLimiter", "100, 5")).is_ok());
    }
}
