//! ICMP header view (echo request/reply, as used by the ping experiments).

use crate::{PacketError, Result};
use serde::{Deserialize, Serialize};

/// Length in bytes of the fixed part of an ICMP echo header.
pub const ICMP_HDR_LEN: usize = 8;

/// The ICMP message kinds used in this reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IcmpKind {
    /// Echo reply (type 0).
    EchoReply,
    /// Echo request (type 8).
    EchoRequest,
    /// Any other type.
    Other(u8),
}

impl IcmpKind {
    /// The on-the-wire type number.
    pub fn number(self) -> u8 {
        match self {
            IcmpKind::EchoReply => 0,
            IcmpKind::EchoRequest => 8,
            IcmpKind::Other(n) => n,
        }
    }
}

impl From<u8> for IcmpKind {
    fn from(n: u8) -> Self {
        match n {
            0 => IcmpKind::EchoReply,
            8 => IcmpKind::EchoRequest,
            other => IcmpKind::Other(other),
        }
    }
}

/// A typed view of an ICMP echo header over a byte buffer that begins at
/// the first byte of the ICMP header.
#[derive(Debug)]
pub struct IcmpView<T> {
    buf: T,
}

impl<T: AsRef<[u8]>> IcmpView<T> {
    /// Validates the buffer length and wraps it.
    pub fn new(buf: T) -> Result<Self> {
        let have = buf.as_ref().len();
        if have < ICMP_HDR_LEN {
            return Err(PacketError::Truncated {
                what: "ICMP header",
                need: ICMP_HDR_LEN,
                have,
            });
        }
        Ok(IcmpView { buf })
    }

    fn b(&self) -> &[u8] {
        self.buf.as_ref()
    }

    /// Message kind (type field).
    pub fn kind(&self) -> IcmpKind {
        IcmpKind::from(self.b()[0])
    }

    /// Code field.
    pub fn code(&self) -> u8 {
        self.b()[1]
    }

    /// Echo identifier.
    pub fn ident(&self) -> u16 {
        u16::from_be_bytes([self.b()[4], self.b()[5]])
    }

    /// Echo sequence number.
    pub fn seq(&self) -> u16 {
        u16::from_be_bytes([self.b()[6], self.b()[7]])
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> IcmpView<T> {
    /// Validates and wraps the buffer for mutation.
    pub fn new_mut(buf: T) -> Result<Self> {
        IcmpView::new(buf)
    }

    fn bm(&mut self) -> &mut [u8] {
        self.buf.as_mut()
    }

    /// Sets the message kind.
    pub fn set_kind(&mut self, k: IcmpKind) {
        self.bm()[0] = k.number();
    }

    /// Sets the echo identifier.
    pub fn set_ident(&mut self, id: u16) {
        self.bm()[4..6].copy_from_slice(&id.to_be_bytes());
    }

    /// Sets the echo sequence number.
    pub fn set_seq(&mut self, s: u16) {
        self.bm()[6..8].copy_from_slice(&s.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut buf = [0u8; ICMP_HDR_LEN];
        let mut v = IcmpView::new_mut(&mut buf[..]).unwrap();
        v.set_kind(IcmpKind::EchoRequest);
        v.set_ident(77);
        v.set_seq(3);
        assert_eq!(v.kind(), IcmpKind::EchoRequest);
        assert_eq!(v.ident(), 77);
        assert_eq!(v.seq(), 3);
    }

    #[test]
    fn kind_numbers() {
        assert_eq!(IcmpKind::from(0), IcmpKind::EchoReply);
        assert_eq!(IcmpKind::from(8), IcmpKind::EchoRequest);
        assert_eq!(IcmpKind::from(3).number(), 3);
    }

    #[test]
    fn short_rejected() {
        assert!(IcmpView::new(&[0u8; 4][..]).is_err());
    }
}
