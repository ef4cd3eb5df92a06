//! UDP header view.

use crate::{PacketError, Result};

/// Length in bytes of a UDP header.
pub const UDP_HDR_LEN: usize = 8;

/// A typed view of a UDP header over a byte buffer that begins at the first
/// byte of the UDP header.
#[derive(Debug)]
pub struct UdpView<T> {
    buf: T,
}

impl<T: AsRef<[u8]>> UdpView<T> {
    /// Validates the buffer length and wraps it.
    pub fn new(buf: T) -> Result<Self> {
        let have = buf.as_ref().len();
        if have < UDP_HDR_LEN {
            return Err(PacketError::Truncated {
                what: "UDP header",
                need: UDP_HDR_LEN,
                have,
            });
        }
        Ok(UdpView { buf })
    }

    fn b(&self) -> &[u8] {
        self.buf.as_ref()
    }

    /// Source port.
    pub fn src_port(&self) -> u16 {
        u16::from_be_bytes([self.b()[0], self.b()[1]])
    }

    /// Destination port.
    pub fn dst_port(&self) -> u16 {
        u16::from_be_bytes([self.b()[2], self.b()[3]])
    }

    /// UDP length field (header + payload).
    pub fn len_field(&self) -> u16 {
        u16::from_be_bytes([self.b()[4], self.b()[5]])
    }

    /// UDP checksum field (0 means "not computed", which is legal for IPv4).
    pub fn checksum(&self) -> u16 {
        u16::from_be_bytes([self.b()[6], self.b()[7]])
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> UdpView<T> {
    /// Validates and wraps the buffer for mutation.
    pub fn new_mut(buf: T) -> Result<Self> {
        UdpView::new(buf)
    }

    fn bm(&mut self) -> &mut [u8] {
        self.buf.as_mut()
    }

    /// Sets the source port.
    pub fn set_src_port(&mut self, p: u16) {
        self.bm()[0..2].copy_from_slice(&p.to_be_bytes());
    }

    /// Sets the destination port.
    pub fn set_dst_port(&mut self, p: u16) {
        self.bm()[2..4].copy_from_slice(&p.to_be_bytes());
    }

    /// Sets the UDP length field.
    pub fn set_len_field(&mut self, l: u16) {
        self.bm()[4..6].copy_from_slice(&l.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut buf = [0u8; UDP_HDR_LEN];
        let mut v = UdpView::new_mut(&mut buf[..]).unwrap();
        v.set_src_port(1234);
        v.set_dst_port(53);
        v.set_len_field(8);
        assert_eq!(v.src_port(), 1234);
        assert_eq!(v.dst_port(), 53);
        assert_eq!(v.len_field(), 8);
        assert_eq!(v.checksum(), 0);
    }

    #[test]
    fn short_rejected() {
        assert!(UdpView::new(&[0u8; 7][..]).is_err());
    }
}
