//! Assembly and parsing of complete Ethernet/IPv4/UDP frames.
//!
//! The case-study traffic is a single UDP flow; [`UdpFrameSpec`] captures
//! its addressing and builds frames of an exact *wire size* (FCS included),
//! which is how the paper specifies packet sizes (64 B and 1500 B).

use crate::error::ParseError;
use crate::ethernet::{EtherType, EthernetHeader};
use crate::ipv4::{Ipv4Header, Protocol};
use crate::mac::MacAddr;
use crate::udp::UdpHeader;
use crate::{ethernet, ipv4, udp, FCS_LEN, MAX_FRAME_SIZE, MIN_FRAME_SIZE};
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

/// Headers' combined length: Ethernet + IPv4 + UDP.
pub const HEADERS_LEN: usize = ethernet::HEADER_LEN + ipv4::HEADER_LEN + udp::HEADER_LEN;

/// Most buffers a thread's pool retains; beyond this, dropped buffers
/// free normally. Sized for the deepest in-flight population a simulated
/// topology holds (ring buffers + links + captures).
const POOL_CAP: usize = 1024;

thread_local! {
    /// The thread's frame pool: the buffers of dropped frames, each
    /// uniquely held, recycled whole (the `Rc` allocation and the byte
    /// buffer inside it) so the per-packet path never calls the allocator.
    /// A simulation and its frames live on one thread, so the pool needs
    /// no locking and parallel lanes stay isolated.
    static POOL: RefCell<Vec<Rc<FrameBuf>>> = const { RefCell::new(Vec::new()) };
}

/// A uniquely held frame with room for `capacity` bytes, whose bytes
/// `fill` writes. The buffer comes from the thread's pool when it has one.
fn pooled(capacity: usize, fill: impl FnOnce(&mut Vec<u8>)) -> Frame {
    let mut buf = POOL
        .with(|p| p.borrow_mut().pop())
        .unwrap_or_else(|| Rc::new(FrameBuf { data: Vec::new() }));
    let data = &mut Rc::get_mut(&mut buf)
        .expect("pooled frame buffers are uniquely held")
        .data;
    data.clear();
    data.reserve(capacity);
    fill(data);
    Frame { buf }
}

/// Backing storage of a [`Frame`].
struct FrameBuf {
    data: Vec<u8>,
}

/// A complete frame as handed to/by a NIC: header bytes and payload,
/// excluding the FCS (which the NIC strips/appends).
///
/// `Frame` is a cheap handle over a reference-counted, pool-recycled
/// buffer: cloning bumps a refcount instead of copying bytes, so the
/// builder → NIC → link → switch/bridge/router handoffs (and flood
/// replication) share one allocation. Mutation goes through
/// [`Frame::bytes_mut`], which copies on write only when the buffer is
/// shared — fault injection and in-place TTL/checksum rewrites never
/// disturb other holders (e.g. a pcap capture of the pristine frame).
///
/// The count is an [`Rc`]'s, not an atomic one: a simulation and its
/// frames live on one thread, and since `Frame` is not `Send` the
/// compiler enforces that.
#[derive(Clone)]
pub struct Frame {
    /// Shared by every clone of this frame. The last holder to drop it
    /// returns it to the thread's pool.
    buf: Rc<FrameBuf>,
}

impl Drop for Frame {
    #[inline]
    fn drop(&mut self) {
        if Rc::strong_count(&self.buf) == 1 {
            // The pool's handle outlives ours by the field drop that
            // follows, after which the pool holds the buffer uniquely.
            // `try_with`: frames can drop during thread teardown, after
            // the pool is destroyed.
            let _ = POOL.try_with(|p| {
                let mut pool = p.borrow_mut();
                if pool.len() < POOL_CAP {
                    pool.push(Rc::clone(&self.buf));
                }
            });
        }
    }
}

impl Frame {
    /// Wraps raw frame bytes (without FCS).
    pub fn from_bytes(data: Vec<u8>) -> Frame {
        Frame {
            buf: Rc::new(FrameBuf { data }),
        }
    }

    /// The frame bytes (without FCS).
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        &self.buf.data
    }

    /// Mutable access to the frame bytes (fault injection corrupts these,
    /// routers rewrite TTL/checksum in place). Copy-on-write: a buffer
    /// shared with other frames is copied first (into a pool-recycled
    /// allocation); a uniquely held one is mutated in place.
    #[inline]
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        if Rc::get_mut(&mut self.buf).is_none() {
            *self = self.duplicate();
        }
        &mut Rc::get_mut(&mut self.buf)
            .expect("uniqueness just ensured")
            .data
    }

    /// A uniquely-held byte-for-byte copy of this frame, backed by a
    /// pool-recycled allocation. Equivalent to `clone()` followed by
    /// `bytes_mut()` forcing the copy, but skips the refcount round-trip —
    /// this is the per-packet template-stamping path in the load generator.
    pub fn duplicate(&self) -> Frame {
        pooled(self.buf.data.len(), |data| {
            data.extend_from_slice(&self.buf.data)
        })
    }

    /// Size of the frame on the wire: bytes plus the 4-byte FCS.
    #[inline]
    pub fn wire_size(&self) -> usize {
        self.buf.data.len() + FCS_LEN
    }

    /// Consumes the frame, returning its bytes: a sole holder's buffer is
    /// taken as is, a shared one copied.
    pub fn into_bytes(mut self) -> Vec<u8> {
        match Rc::get_mut(&mut self.buf) {
            Some(fb) => std::mem::take(&mut fb.data),
            None => self.buf.data.clone(),
        }
    }
}

impl PartialEq for Frame {
    fn eq(&self, other: &Frame) -> bool {
        self.bytes() == other.bytes()
    }
}

impl Eq for Frame {}

impl core::fmt::Debug for Frame {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Frame")
            .field("data", &self.buf.data)
            .finish()
    }
}

/// Addressing for a unidirectional UDP flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpFrameSpec {
    /// Source MAC (the generator's port).
    pub src_mac: MacAddr,
    /// Destination MAC (the DuT's ingress port).
    pub dst_mac: MacAddr,
    /// Source IP address.
    pub src_ip: Ipv4Addr,
    /// Destination IP address (behind the DuT).
    pub dst_ip: Ipv4Addr,
    /// UDP source port.
    pub src_port: u16,
    /// UDP destination port.
    pub dst_port: u16,
    /// Initial IPv4 TTL.
    pub ttl: u8,
}

impl UdpFrameSpec {
    /// Builds a frame with exactly `payload.len()` bytes of UDP payload.
    /// The backing buffer comes from the thread's frame pool.
    pub fn build(&self, payload: &[u8]) -> Frame {
        pooled(HEADERS_LEN + payload.len(), |buf| {
            EthernetHeader {
                dst: self.dst_mac,
                src: self.src_mac,
                ethertype: EtherType::Ipv4,
            }
            .emit(buf);
            let ip = Ipv4Header::for_payload(
                self.src_ip,
                self.dst_ip,
                Protocol::Udp,
                self.ttl,
                udp::HEADER_LEN + payload.len(),
            );
            ip.emit(buf);
            UdpHeader::for_payload(self.src_port, self.dst_port, payload.len()).emit(
                self.src_ip,
                self.dst_ip,
                payload,
                buf,
            );
        })
    }

    /// Builds a frame whose size *on the wire* (FCS included) is exactly
    /// `wire_size` bytes, the way the paper specifies packet sizes.
    ///
    /// The payload starts with a copy of `payload_prefix` (e.g. a latency
    /// probe) and is zero-padded to the target size.
    ///
    /// Returns an error if `wire_size` is outside
    /// `[MIN_FRAME_SIZE, MAX_FRAME_SIZE]` or too small to hold the prefix.
    pub fn build_with_wire_size(
        &self,
        wire_size: usize,
        payload_prefix: &[u8],
    ) -> Result<Frame, FrameSizeError> {
        if !(MIN_FRAME_SIZE..=MAX_FRAME_SIZE).contains(&wire_size) {
            return Err(FrameSizeError::OutOfRange { wire_size });
        }
        let payload_len = wire_size - FCS_LEN - HEADERS_LEN;
        if payload_prefix.len() > payload_len {
            return Err(FrameSizeError::PrefixTooLarge {
                wire_size,
                prefix_len: payload_prefix.len(),
                payload_len,
            });
        }
        let mut payload = vec![0u8; payload_len];
        payload[..payload_prefix.len()].copy_from_slice(payload_prefix);
        Ok(self.build(&payload))
    }
}

/// Error building a fixed-wire-size frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameSizeError {
    /// Requested wire size outside the Ethernet limits.
    OutOfRange {
        /// The requested size.
        wire_size: usize,
    },
    /// The payload prefix does not fit the requested frame size.
    PrefixTooLarge {
        /// The requested size.
        wire_size: usize,
        /// Length of the prefix that was supposed to fit.
        prefix_len: usize,
        /// Payload room the frame actually has.
        payload_len: usize,
    },
}

impl core::fmt::Display for FrameSizeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FrameSizeError::OutOfRange { wire_size } => write!(
                f,
                "wire size {wire_size} outside [{MIN_FRAME_SIZE}, {MAX_FRAME_SIZE}]"
            ),
            FrameSizeError::PrefixTooLarge {
                wire_size,
                prefix_len,
                payload_len,
            } => write!(
                f,
                "payload prefix of {prefix_len} bytes does not fit \
                 {payload_len}-byte payload of a {wire_size}-byte frame"
            ),
        }
    }
}

impl std::error::Error for FrameSizeError {}

/// A fully parsed Eth/IPv4/UDP frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedUdpFrame<'a> {
    /// Ethernet header.
    pub eth: EthernetHeader,
    /// IPv4 header.
    pub ip: Ipv4Header,
    /// UDP header.
    pub udp: UdpHeader,
    /// UDP payload.
    pub payload: &'a [u8],
}

/// Parses a frame expected to be Eth/IPv4/UDP, validating all checksums.
pub fn parse_udp_frame(frame: &[u8]) -> Result<ParsedUdpFrame<'_>, ParseError> {
    let (eth, rest) = EthernetHeader::parse(frame)?;
    if eth.ethertype != EtherType::Ipv4 {
        return Err(ParseError::Unsupported {
            layer: "ethernet",
            field: "ethertype",
            value: u32::from(u16::from(eth.ethertype)),
        });
    }
    let (ip, rest) = Ipv4Header::parse(rest)?;
    if ip.protocol != Protocol::Udp {
        return Err(ParseError::Unsupported {
            layer: "ipv4",
            field: "protocol",
            value: u32::from(u8::from(ip.protocol)),
        });
    }
    let (udp_hdr, payload) = UdpHeader::parse(ip.src, ip.dst, rest)?;
    Ok(ParsedUdpFrame {
        eth,
        ip,
        udp: udp_hdr,
        payload,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn spec() -> UdpFrameSpec {
        UdpFrameSpec {
            src_mac: MacAddr::testbed_host(1),
            dst_mac: MacAddr::testbed_host(2),
            src_ip: Ipv4Addr::new(10, 0, 0, 1),
            dst_ip: Ipv4Addr::new(10, 0, 1, 1),
            src_port: 1234,
            dst_port: 4321,
            ttl: 64,
        }
    }

    #[test]
    fn paper_packet_sizes_build_and_parse() {
        for size in [64usize, 1500] {
            let frame = spec().build_with_wire_size(size, &[]).unwrap();
            assert_eq!(frame.wire_size(), size, "wire size must be exact");
            let parsed = parse_udp_frame(frame.bytes()).unwrap();
            assert_eq!(parsed.eth.src, MacAddr::testbed_host(1));
            assert_eq!(parsed.ip.ttl, 64);
            assert_eq!(parsed.udp.dst_port, 4321);
            assert_eq!(
                parsed.payload.len(),
                size - FCS_LEN - HEADERS_LEN,
                "payload fills the frame"
            );
        }
    }

    #[test]
    fn clone_shares_until_written() {
        let a = spec().build(&[1, 2, 3]);
        let mut b = a.clone();
        assert_eq!(a, b);
        b.bytes_mut()[0] ^= 0xFF;
        assert_ne!(a, b, "copy-on-write isolates the clone");
        assert_eq!(a.bytes()[0] ^ 0xFF, b.bytes()[0], "original untouched");
    }

    #[test]
    fn into_bytes_of_shared_frame_copies() {
        let a = spec().build(&[9; 8]);
        let b = a.clone();
        assert_eq!(
            b.into_bytes(),
            a.bytes(),
            "shared unwrap falls back to copy"
        );
        let sole = spec().build(&[7; 4]);
        let expect = sole.bytes().to_vec();
        assert_eq!(sole.into_bytes(), expect, "sole owner steals the buffer");
    }

    #[test]
    fn pool_recycles_dropped_buffers() {
        let a = spec().build(&[0u8; 100]);
        let ptr = a.bytes().as_ptr();
        drop(a);
        // The next build on this thread reuses the dropped frame's
        // allocation.
        let b = spec().build(&[0u8; 50]);
        assert_eq!(b.bytes().as_ptr(), ptr, "dropped buffer recycled");
    }

    #[test]
    fn pool_never_hands_out_a_shared_buffer() {
        let a = spec().build(&[5u8; 40]);
        let b = a.clone();
        let pristine = b.bytes().to_vec();
        // `b` still holds the buffer, so dropping `a` must not pool it.
        drop(a);
        let mut c = spec().build(&[0u8; 40]);
        assert_ne!(c.bytes().as_ptr(), b.bytes().as_ptr(), "aliases `b`");
        c.bytes_mut().fill(0xAA);
        assert_eq!(b.bytes(), &pristine[..], "writing a new frame changed `b`");
    }

    #[test]
    fn sizes_out_of_range_rejected() {
        assert!(matches!(
            spec().build_with_wire_size(63, &[]),
            Err(FrameSizeError::OutOfRange { .. })
        ));
        assert!(matches!(
            spec().build_with_wire_size(1519, &[]),
            Err(FrameSizeError::OutOfRange { .. })
        ));
    }

    #[test]
    fn prefix_too_large_rejected() {
        // 64 B frame has an 18-byte payload; a 19-byte prefix cannot fit.
        assert!(matches!(
            spec().build_with_wire_size(64, &[0u8; 19]),
            Err(FrameSizeError::PrefixTooLarge { .. })
        ));
    }

    #[test]
    fn probe_rides_in_min_frame() {
        use crate::probe::Probe;
        let p = Probe {
            flow_id: 1,
            seq: 42,
            tx_ns: 1_000,
        };
        let mut prefix = [0u8; crate::probe::PROBE_LEN];
        p.write_to(&mut prefix);
        let frame = spec().build_with_wire_size(64, &prefix).unwrap();
        let parsed = parse_udp_frame(frame.bytes()).unwrap();
        assert_eq!(Probe::parse(parsed.payload).unwrap(), p);
    }

    #[test]
    fn non_ipv4_rejected() {
        let frame = spec().build(&[1, 2, 3]);
        let mut bytes = frame.into_bytes();
        bytes[12..14].copy_from_slice(&0x0806u16.to_be_bytes()); // ARP
        assert!(matches!(
            parse_udp_frame(&bytes),
            Err(ParseError::Unsupported {
                field: "ethertype",
                ..
            })
        ));
    }

    #[test]
    fn non_udp_rejected() {
        // Rebuild with protocol TCP at the IP layer by hand-editing and
        // re-checksumming the header.
        let frame = spec().build(&[0u8; 8]);
        let mut bytes = frame.into_bytes();
        bytes[14 + 9] = 6; // protocol = TCP
        bytes[14 + 10] = 0;
        bytes[14 + 11] = 0;
        let csum = crate::checksum::checksum(&bytes[14..34]);
        bytes[14 + 10..14 + 12].copy_from_slice(&csum.to_be_bytes());
        assert!(matches!(
            parse_udp_frame(&bytes),
            Err(ParseError::Unsupported {
                field: "protocol",
                ..
            })
        ));
    }

    proptest! {
        #[test]
        fn prop_every_legal_wire_size_roundtrips(size in 64usize..=1518) {
            let frame = spec().build_with_wire_size(size, b"probe!").unwrap();
            prop_assert_eq!(frame.wire_size(), size);
            let parsed = parse_udp_frame(frame.bytes()).unwrap();
            prop_assert_eq!(&parsed.payload[..6], b"probe!");
            prop_assert_eq!(
                usize::from(parsed.ip.total_len),
                size - FCS_LEN - ethernet::HEADER_LEN
            );
        }
    }
}
