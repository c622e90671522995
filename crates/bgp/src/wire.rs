//! BGP-4 message codecs (RFC 4271 §4, plus RFC 4760 multiprotocol
//! attributes for IPv6).
//!
//! The decode side is a streaming frame buffer: TCP hands a BGP speaker
//! arbitrary byte chunks, so [`FrameBuffer::feed`] accepts any split and
//! [`FrameBuffer::next_message`] yields complete messages (or a
//! structured [`BgpError`]) as soon as enough bytes have arrived. A
//! short read is *not* an error — the buffer simply waits — but every
//! malformed complete header or body is, with the RFC 4271 §6
//! NOTIFICATION codes attached so the session layer can tell the peer
//! why it is being dropped.
//!
//! The encode side builds canonical frames for the passive speaker's own
//! OPEN/KEEPALIVE/NOTIFICATION traffic and for synthesizing UPDATE
//! streams (fixtures, fuzz corpora, test replays).

use crate::error::{BgpError, BgpErrorKind};
use poptrie_rib::Prefix;
use std::net::{Ipv4Addr, Ipv6Addr};

/// Fixed BGP header size: 16-byte marker + 2-byte length + 1-byte type.
pub const HEADER_LEN: usize = 19;
/// Largest legal BGP message (RFC 4271 §4.1).
pub const MAX_MESSAGE_LEN: usize = 4096;

/// Message type codes.
const TYPE_OPEN: u8 = 1;
const TYPE_UPDATE: u8 = 2;
const TYPE_NOTIFICATION: u8 = 3;
const TYPE_KEEPALIVE: u8 = 4;

/// Path attribute type codes.
const ATTR_ORIGIN: u8 = 1;
const ATTR_AS_PATH: u8 = 2;
const ATTR_NEXT_HOP: u8 = 3;
const ATTR_MP_REACH_NLRI: u8 = 14;
const ATTR_MP_UNREACH_NLRI: u8 = 15;

/// AFI/SAFI for IPv6 unicast (RFC 4760).
const AFI_IPV6: u16 = 2;
const SAFI_UNICAST: u8 = 1;

/// A decoded OPEN message (RFC 4271 §4.2). Optional parameters are kept
/// opaque — capability negotiation is out of scope for a replay-driven
/// passive speaker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenMsg {
    /// Protocol version; always 4 after validation.
    pub version: u8,
    /// The peer's autonomous system number (2-octet field).
    pub asn: u16,
    /// Proposed hold time in seconds (0, or >= 3).
    pub hold_time: u16,
    /// The peer's BGP identifier.
    pub bgp_id: u32,
    /// Raw optional parameters, undecoded.
    pub params: Vec<u8>,
}

/// A decoded UPDATE message: IPv4 feasible/withdrawn routes from the
/// base RFC 4271 encoding plus IPv6 routes from the RFC 4760
/// MP_REACH_NLRI / MP_UNREACH_NLRI attributes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct UpdateMsg {
    /// IPv4 prefixes withdrawn from service.
    pub withdrawn_v4: Vec<Prefix<u32>>,
    /// IPv4 prefixes announced, all sharing [`next_hop_v4`](Self::next_hop_v4).
    pub announced_v4: Vec<Prefix<u32>>,
    /// The NEXT_HOP attribute, present whenever `announced_v4` is
    /// non-empty.
    pub next_hop_v4: Option<Ipv4Addr>,
    /// IPv6 prefixes announced via MP_REACH_NLRI, with their next hop.
    pub announced_v6: Vec<Prefix<u128>>,
    /// The MP_REACH_NLRI next hop, present whenever `announced_v6` is
    /// non-empty.
    pub next_hop_v6: Option<Ipv6Addr>,
    /// IPv6 prefixes withdrawn via MP_UNREACH_NLRI.
    pub withdrawn_v6: Vec<Prefix<u128>>,
}

impl UpdateMsg {
    /// Total route events this update carries (announces + withdraws,
    /// both families).
    pub fn events(&self) -> usize {
        self.withdrawn_v4.len()
            + self.announced_v4.len()
            + self.announced_v6.len()
            + self.withdrawn_v6.len()
    }
}

/// A decoded NOTIFICATION (RFC 4271 §4.5): the peer's reason for
/// closing the session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotificationMsg {
    /// Error code.
    pub code: u8,
    /// Error subcode.
    pub subcode: u8,
    /// Diagnostic data.
    pub data: Vec<u8>,
}

/// One decoded BGP message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Session proposal.
    Open(OpenMsg),
    /// Route announcements and withdrawals.
    Update(UpdateMsg),
    /// Fatal error report; the sender closes the connection after it.
    Notification(NotificationMsg),
    /// Hold-timer refresh.
    Keepalive,
}

impl Message {
    /// Encode as a complete framed message (marker + length + type +
    /// body).
    pub fn encode(&self) -> Vec<u8> {
        let body = match self {
            Message::Open(o) => encode_open_body(o),
            Message::Update(u) => encode_update_body(u),
            Message::Notification(n) => {
                let mut b = vec![n.code, n.subcode];
                b.extend_from_slice(&n.data);
                b
            }
            Message::Keepalive => Vec::new(),
        };
        let type_code = match self {
            Message::Open(_) => TYPE_OPEN,
            Message::Update(_) => TYPE_UPDATE,
            Message::Notification(_) => TYPE_NOTIFICATION,
            Message::Keepalive => TYPE_KEEPALIVE,
        };
        let mut out = Vec::with_capacity(HEADER_LEN + body.len());
        out.extend_from_slice(&[0xFF; 16]);
        out.extend_from_slice(&((HEADER_LEN + body.len()) as u16).to_be_bytes());
        out.push(type_code);
        out.extend_from_slice(&body);
        out
    }
}

fn encode_open_body(o: &OpenMsg) -> Vec<u8> {
    let mut b = Vec::with_capacity(10 + o.params.len());
    b.push(o.version);
    b.extend_from_slice(&o.asn.to_be_bytes());
    b.extend_from_slice(&o.hold_time.to_be_bytes());
    b.extend_from_slice(&o.bgp_id.to_be_bytes());
    b.push(o.params.len() as u8);
    b.extend_from_slice(&o.params);
    b
}

fn push_nlri_v4(out: &mut Vec<u8>, p: &Prefix<u32>) {
    out.push(p.len());
    let nbytes = p.len().div_ceil(8) as usize;
    out.extend_from_slice(&p.addr().to_be_bytes()[..nbytes]);
}

fn push_nlri_v6(out: &mut Vec<u8>, p: &Prefix<u128>) {
    out.push(p.len());
    let nbytes = p.len().div_ceil(8) as usize;
    out.extend_from_slice(&p.addr().to_be_bytes()[..nbytes]);
}

/// Append one path attribute with automatic extended-length selection.
fn push_attr(out: &mut Vec<u8>, flags: u8, type_code: u8, value: &[u8]) {
    if value.len() > 255 {
        out.push(flags | 0x10);
        out.push(type_code);
        out.extend_from_slice(&(value.len() as u16).to_be_bytes());
    } else {
        out.push(flags);
        out.push(type_code);
        out.push(value.len() as u8);
    }
    out.extend_from_slice(value);
}

fn encode_update_body(u: &UpdateMsg) -> Vec<u8> {
    let mut withdrawn = Vec::new();
    for p in &u.withdrawn_v4 {
        push_nlri_v4(&mut withdrawn, p);
    }
    let mut attrs = Vec::new();
    if !u.announced_v4.is_empty() {
        // Mandatory well-known attributes for an IPv4 announce: ORIGIN
        // (IGP), an empty AS_PATH (as an iBGP speaker would send), and
        // the NEXT_HOP the routes resolve to.
        push_attr(&mut attrs, 0x40, ATTR_ORIGIN, &[0]);
        push_attr(&mut attrs, 0x40, ATTR_AS_PATH, &[]);
        let nh = u.next_hop_v4.unwrap_or(Ipv4Addr::UNSPECIFIED).octets();
        push_attr(&mut attrs, 0x40, ATTR_NEXT_HOP, &nh);
    }
    if !u.announced_v6.is_empty() {
        let mut v = Vec::new();
        v.extend_from_slice(&AFI_IPV6.to_be_bytes());
        v.push(SAFI_UNICAST);
        let nh = u.next_hop_v6.unwrap_or(Ipv6Addr::UNSPECIFIED).octets();
        v.push(nh.len() as u8);
        v.extend_from_slice(&nh);
        v.push(0); // reserved (SNPA count in RFC 2858)
        for p in &u.announced_v6 {
            push_nlri_v6(&mut v, p);
        }
        push_attr(&mut attrs, 0x80, ATTR_MP_REACH_NLRI, &v);
    }
    if !u.withdrawn_v6.is_empty() {
        let mut v = Vec::new();
        v.extend_from_slice(&AFI_IPV6.to_be_bytes());
        v.push(SAFI_UNICAST);
        for p in &u.withdrawn_v6 {
            push_nlri_v6(&mut v, p);
        }
        push_attr(&mut attrs, 0x80, ATTR_MP_UNREACH_NLRI, &v);
    }
    let mut body = Vec::with_capacity(4 + withdrawn.len() + attrs.len());
    body.extend_from_slice(&(withdrawn.len() as u16).to_be_bytes());
    body.extend_from_slice(&withdrawn);
    body.extend_from_slice(&(attrs.len() as u16).to_be_bytes());
    body.extend_from_slice(&attrs);
    for p in &u.announced_v4 {
        push_nlri_v4(&mut body, p);
    }
    body
}

/// A bounds-checked big-endian cursor whose offsets are reported
/// relative to the start of the framed message.
struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
    /// Offset of `data[0]` within the framed message (for error
    /// reporting).
    base: usize,
}

impl<'a> Cursor<'a> {
    fn new(data: &'a [u8], base: usize) -> Self {
        Cursor { data, pos: 0, base }
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn err(&self, kind: BgpErrorKind) -> BgpError {
        BgpError {
            offset: self.base + self.pos,
            kind,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], BgpError> {
        if self.remaining() < n {
            return Err(self.err(BgpErrorKind::Truncated {
                need: n,
                have: self.remaining(),
            }));
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, BgpError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, BgpError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, BgpError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }
}

/// Validated header of a complete frame: `(total length, type code)`.
fn parse_header(bytes: &[u8]) -> Result<(usize, u8), BgpError> {
    debug_assert!(bytes.len() >= HEADER_LEN);
    if bytes[..16].iter().any(|&b| b != 0xFF) {
        return Err(BgpError {
            offset: 0,
            kind: BgpErrorKind::BadMarker,
        });
    }
    let length = u16::from_be_bytes([bytes[16], bytes[17]]);
    if (length as usize) < HEADER_LEN || length as usize > MAX_MESSAGE_LEN {
        return Err(BgpError {
            offset: 16,
            kind: BgpErrorKind::BadLength(length),
        });
    }
    let type_code = bytes[18];
    let min = match type_code {
        TYPE_OPEN => HEADER_LEN + 10,
        TYPE_UPDATE => HEADER_LEN + 4,
        TYPE_NOTIFICATION => HEADER_LEN + 2,
        TYPE_KEEPALIVE => HEADER_LEN,
        t => {
            return Err(BgpError {
                offset: 18,
                kind: BgpErrorKind::BadType(t),
            })
        }
    };
    if (length as usize) < min || (type_code == TYPE_KEEPALIVE && length as usize != HEADER_LEN) {
        return Err(BgpError {
            offset: 16,
            kind: BgpErrorKind::BadLength(length),
        });
    }
    Ok((length as usize, type_code))
}

/// Decode one complete framed message. `bytes` must hold exactly the
/// frame (header + body); use [`FrameBuffer`] to carve frames out of a
/// stream.
pub fn parse_message(bytes: &[u8]) -> Result<Message, BgpError> {
    if bytes.len() < HEADER_LEN {
        return Err(BgpError {
            offset: 0,
            kind: BgpErrorKind::Truncated {
                need: HEADER_LEN,
                have: bytes.len(),
            },
        });
    }
    let (length, type_code) = parse_header(bytes)?;
    if bytes.len() != length {
        return Err(BgpError {
            offset: 16,
            kind: BgpErrorKind::BadLength(length as u16),
        });
    }
    let body = &bytes[HEADER_LEN..];
    match type_code {
        TYPE_OPEN => parse_open(body).map(Message::Open),
        TYPE_UPDATE => parse_update(body).map(Message::Update),
        TYPE_NOTIFICATION => {
            let mut cur = Cursor::new(body, HEADER_LEN);
            let code = cur.u8().map_err(|mut e| {
                e.kind = BgpErrorKind::BadNotification;
                e
            })?;
            let subcode = cur.u8().map_err(|mut e| {
                e.kind = BgpErrorKind::BadNotification;
                e
            })?;
            Ok(Message::Notification(NotificationMsg {
                code,
                subcode,
                data: body[2..].to_vec(),
            }))
        }
        TYPE_KEEPALIVE => Ok(Message::Keepalive),
        _ => unreachable!("parse_header rejects unknown types"),
    }
}

fn parse_open(body: &[u8]) -> Result<OpenMsg, BgpError> {
    let mut cur = Cursor::new(body, HEADER_LEN);
    let version = cur.u8()?;
    if version != 4 {
        return Err(BgpError {
            offset: HEADER_LEN,
            kind: BgpErrorKind::BadVersion(version),
        });
    }
    let asn = cur.u16()?;
    let hold_time = cur.u16()?;
    if hold_time == 1 || hold_time == 2 {
        return Err(BgpError {
            offset: HEADER_LEN + 3,
            kind: BgpErrorKind::BadHoldTime(hold_time),
        });
    }
    let bgp_id = cur.u32()?;
    let params_len = cur.u8()? as usize;
    let params = cur.take(params_len)?.to_vec();
    Ok(OpenMsg {
        version,
        asn,
        hold_time,
        bgp_id,
        params,
    })
}

/// Read one NLRI prefix of at most `max_len` bits into `(bytes, len)`.
fn read_nlri<'a>(cur: &mut Cursor<'a>, max_len: u8) -> Result<(&'a [u8], u8), BgpError> {
    let len = cur.u8()?;
    if len > max_len {
        return Err(BgpError {
            offset: cur.base + cur.pos - 1,
            kind: BgpErrorKind::BadPrefixLength(len),
        });
    }
    let nbytes = len.div_ceil(8) as usize;
    Ok((cur.take(nbytes)?, len))
}

fn nlri_v4(cur: &mut Cursor<'_>) -> Result<Prefix<u32>, BgpError> {
    let (bytes, len) = read_nlri(cur, 32)?;
    let mut addr = [0u8; 4];
    addr[..bytes.len()].copy_from_slice(bytes);
    Ok(Prefix::new(u32::from_be_bytes(addr), len))
}

fn nlri_v6(cur: &mut Cursor<'_>) -> Result<Prefix<u128>, BgpError> {
    let (bytes, len) = read_nlri(cur, 128)?;
    let mut addr = [0u8; 16];
    addr[..bytes.len()].copy_from_slice(bytes);
    Ok(Prefix::new(u128::from_be_bytes(addr), len))
}

fn parse_update(body: &[u8]) -> Result<UpdateMsg, BgpError> {
    let mut cur = Cursor::new(body, HEADER_LEN);
    let mut out = UpdateMsg::default();

    let withdrawn_len = cur.u16()? as usize;
    if withdrawn_len + 2 > body.len() {
        return Err(BgpError {
            offset: HEADER_LEN,
            kind: BgpErrorKind::BadUpdateLayout,
        });
    }
    let withdrawn_start = cur.pos;
    {
        let mut wcur = Cursor::new(cur.take(withdrawn_len)?, HEADER_LEN + withdrawn_start);
        while wcur.remaining() > 0 {
            out.withdrawn_v4.push(nlri_v4(&mut wcur)?);
        }
    }

    let attrs_len = cur.u16()? as usize;
    if attrs_len > cur.remaining() {
        return Err(BgpError {
            offset: HEADER_LEN + cur.pos - 2,
            kind: BgpErrorKind::BadUpdateLayout,
        });
    }
    let attrs_start = cur.pos;
    let attrs = cur.take(attrs_len)?;
    parse_attributes(attrs, HEADER_LEN + attrs_start, &mut out)?;

    // Remaining bytes are the IPv4 NLRI.
    let nlri_start = cur.pos;
    {
        let mut ncur = Cursor::new(cur.take(cur.remaining())?, HEADER_LEN + nlri_start);
        while ncur.remaining() > 0 {
            out.announced_v4.push(nlri_v4(&mut ncur)?);
        }
    }
    if !out.announced_v4.is_empty() && out.next_hop_v4.is_none() {
        // §6.3: missing well-known mandatory attribute.
        return Err(BgpError {
            offset: HEADER_LEN + attrs_start,
            kind: BgpErrorKind::BadAttribute(ATTR_NEXT_HOP),
        });
    }
    Ok(out)
}

fn parse_attributes(attrs: &[u8], base: usize, out: &mut UpdateMsg) -> Result<(), BgpError> {
    let mut cur = Cursor::new(attrs, base);
    while cur.remaining() > 0 {
        let attr_start = cur.base + cur.pos;
        let flags = cur.u8()?;
        let type_code = cur.u8()?;
        let len = if flags & 0x10 != 0 {
            cur.u16()? as usize
        } else {
            cur.u8()? as usize
        };
        let value = cur.take(len).map_err(|_| BgpError {
            offset: attr_start,
            kind: BgpErrorKind::BadAttribute(type_code),
        })?;
        match type_code {
            ATTR_NEXT_HOP => {
                if len != 4 {
                    return Err(BgpError {
                        offset: attr_start,
                        kind: BgpErrorKind::BadAttribute(type_code),
                    });
                }
                out.next_hop_v4 = Some(Ipv4Addr::new(value[0], value[1], value[2], value[3]));
            }
            ATTR_MP_REACH_NLRI => parse_mp_reach(value, attr_start, out)?,
            ATTR_MP_UNREACH_NLRI => parse_mp_unreach(value, attr_start, out)?,
            _ => {} // ORIGIN, AS_PATH, communities, … — not needed for FIB updates
        }
    }
    Ok(())
}

fn parse_mp_reach(value: &[u8], base: usize, out: &mut UpdateMsg) -> Result<(), BgpError> {
    let mut cur = Cursor::new(value, base);
    let afi = cur.u16()?;
    let safi = cur.u8()?;
    let nh_len = cur.u8()? as usize;
    let nh = cur.take(nh_len).map_err(|_| BgpError {
        offset: base,
        kind: BgpErrorKind::BadAttribute(ATTR_MP_REACH_NLRI),
    })?;
    let _reserved = cur.u8()?;
    if afi != AFI_IPV6 || safi != SAFI_UNICAST {
        return Ok(()); // other families are skipped, not rejected
    }
    if nh_len < 16 {
        return Err(BgpError {
            offset: base,
            kind: BgpErrorKind::BadAttribute(ATTR_MP_REACH_NLRI),
        });
    }
    let mut a = [0u8; 16];
    a.copy_from_slice(&nh[..16]); // a 32-byte nh is global + link-local; use global
    out.next_hop_v6 = Some(Ipv6Addr::from(a));
    while cur.remaining() > 0 {
        out.announced_v6.push(nlri_v6(&mut cur)?);
    }
    Ok(())
}

fn parse_mp_unreach(value: &[u8], base: usize, out: &mut UpdateMsg) -> Result<(), BgpError> {
    let mut cur = Cursor::new(value, base);
    let afi = cur.u16()?;
    let safi = cur.u8()?;
    if afi != AFI_IPV6 || safi != SAFI_UNICAST {
        return Ok(());
    }
    while cur.remaining() > 0 {
        out.withdrawn_v6.push(nlri_v6(&mut cur)?);
    }
    Ok(())
}

/// A streaming defragmenter: buffers arbitrary byte chunks and carves
/// complete BGP frames out of them.
///
/// Header validation happens as soon as 19 bytes are buffered, so a
/// corrupt length field fails fast instead of stalling the session
/// waiting for bytes that will never arrive.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted lazily.
    head: usize,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a received chunk.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact before growing: keeps the buffer bounded by one
        // maximum message plus one chunk.
        if self.head > 0 {
            self.buf.drain(..self.head);
            self.head = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as messages.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.head
    }

    /// `true` when a message header has arrived but its body has not —
    /// the "mid-message" state a hold-timer expiry can interrupt.
    pub fn mid_message(&self) -> bool {
        let avail = self.pending();
        if avail == 0 {
            return false;
        }
        if avail < HEADER_LEN {
            return true;
        }
        match parse_header(&self.buf[self.head..]) {
            Ok((length, _)) => avail < length,
            Err(_) => false, // a corrupt header is an error, not a partial frame
        }
    }

    /// Decode the next complete message, if one is fully buffered.
    ///
    /// `Ok(None)` means "need more bytes". An `Err` is fatal for the
    /// session: the buffer's contents are no longer trustworthy (BGP has
    /// no way to resynchronize a corrupt stream), so the caller must
    /// drop the connection after sending the NOTIFICATION derived from
    /// [`BgpError::notification_codes`].
    pub fn next_message(&mut self) -> Result<Option<Message>, BgpError> {
        let avail = self.pending();
        if avail < HEADER_LEN {
            return Ok(None);
        }
        let frame = &self.buf[self.head..];
        let (length, _) = parse_header(frame)?;
        if avail < length {
            return Ok(None);
        }
        let msg = parse_message(&frame[..length])?;
        self.head += length;
        Ok(Some(msg))
    }

    /// Discard all buffered bytes (connection reset).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
    }
}
