//! Request building and response decoding helpers.
//!
//! "The API provides two functions to assist with encoding and decoding
//! request and response packets, respectively" (paper §V.C). The builder
//! mirrors `hmcsim_build_memrequest` from the Figure 4 calling sequence;
//! the decoder correlates response packets — which "may arrive out of
//! order" — back to tags, status and payload for the calling application.

use std::fmt;
use std::ops::Deref;

use hmc_types::packet::ResponseStatus;
use hmc_types::{
    Command, CubeId, Cycle, HmcError, LinkId, Packet, Result, WireResponse, MAX_DATA_BYTES,
};

/// A decoded response packet, ready for host-side correlation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseInfo {
    /// The response command (RD_RS / WR_RS / MD_RD_RS / MD_WR_RS / ERROR).
    pub cmd: Command,
    /// The correlation tag echoed from the request.
    pub tag: u16,
    /// Completion status.
    pub status: ResponseStatus,
    /// True when the payload must not be trusted.
    pub data_invalid: bool,
    /// The payload (empty for write/mode-write/error responses).
    pub data: ResponseData,
    /// The link the original request entered on (SLID echo).
    pub slid: LinkId,
}

impl ResponseInfo {
    /// True when the response signals success.
    pub fn is_ok(&self) -> bool {
        self.status.is_ok()
    }

    /// The response as a `Responses` frame entry, `latency` cycles after
    /// its request entered the device. This is where the payload is
    /// copied into owned bytes: a frame, or a capture that outlives the
    /// drain, keeps only the live payload on the heap.
    pub fn to_wire(&self, latency: Cycle) -> WireResponse {
        WireResponse {
            tag: self.tag,
            ok: self.is_ok(),
            status: self.status.encode(),
            latency,
            data: self.data.to_vec(),
        }
    }
}

/// A response payload of at most eight data FLITs, held inline so that
/// decoding a response never allocates. Derefs to the live bytes.
#[derive(Clone, PartialEq, Eq)]
pub struct ResponseData {
    len: u8,
    /// Bytes past `len` stay zero, so the derived equality compares
    /// exactly the live payloads.
    bytes: [u8; MAX_DATA_BYTES],
}

impl ResponseData {
    /// Copy `bytes` into inline storage.
    ///
    /// # Panics
    /// Panics if `bytes.len()` exceeds the 128-byte maximum payload.
    pub fn new(bytes: &[u8]) -> Self {
        assert!(bytes.len() <= MAX_DATA_BYTES, "payload too large");
        let mut data = ResponseData {
            len: bytes.len() as u8,
            bytes: [0; MAX_DATA_BYTES],
        };
        data.bytes[..bytes.len()].copy_from_slice(bytes);
        data
    }

    fn of_packet(packet: &Packet) -> Self {
        let mut data = ResponseData::new(&[]);
        data.len = packet.copy_data_to(&mut data.bytes) as u8;
        data
    }
}

impl Deref for ResponseData {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }
}

impl fmt::Debug for ResponseData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Build a fully formed, compliant memory request packet — the
/// `hmcsim_build_memrequest` equivalent.
///
/// `payload` must match the command class: empty for reads and MODE_READ,
/// the block size for writes, exactly 16 bytes for atomics and MODE_WRITE.
pub fn build_mem_request(
    cmd: Command,
    cub: CubeId,
    addr: u64,
    tag: u16,
    link: LinkId,
    payload: &[u8],
) -> Result<Packet> {
    Packet::request(cmd, cub, addr, tag, link, payload)
}

/// Decode a response packet into [`ResponseInfo`].
pub fn decode_response(packet: &Packet) -> Result<ResponseInfo> {
    let cmd = packet.cmd()?;
    if !cmd.is_response() {
        return Err(HmcError::InvalidPacket(format!(
            "{} is not a response command",
            cmd.mnemonic()
        )));
    }
    Ok(ResponseInfo {
        cmd,
        tag: packet.tag(),
        status: packet.errstat()?,
        data_invalid: packet.dinv(),
        data: ResponseData::of_packet(packet),
        slid: packet.response_slid(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_types::BlockSize;

    #[test]
    fn build_matches_packet_request() {
        let a = build_mem_request(Command::Rd(BlockSize::B64), 1, 0x40, 7, 2, &[]).unwrap();
        let b = Packet::request(Command::Rd(BlockSize::B64), 1, 0x40, 7, 2, &[]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn decode_read_response() {
        let data: Vec<u8> = (0..32).collect();
        let p = Packet::response(Command::RdResponse, 42, 3, ResponseStatus::Ok, &data).unwrap();
        let info = decode_response(&p).unwrap();
        assert_eq!(info.cmd, Command::RdResponse);
        assert_eq!(info.tag, 42);
        assert_eq!(info.slid, 3);
        assert!(info.is_ok());
        assert!(!info.data_invalid);
        assert_eq!(*info.data, *data);
    }

    #[test]
    fn decode_error_response() {
        let p = Packet::response(
            Command::ErrorResponse,
            9,
            0,
            ResponseStatus::AddressError,
            &[],
        )
        .unwrap();
        let info = decode_response(&p).unwrap();
        assert!(!info.is_ok());
        assert!(info.data_invalid);
        assert_eq!(info.status, ResponseStatus::AddressError);
        assert!(info.data.is_empty());
    }

    #[test]
    fn decode_rejects_request_packets() {
        let p = Packet::request(Command::Rd(BlockSize::B16), 0, 0, 0, 0, &[]).unwrap();
        assert!(decode_response(&p).is_err());
    }
}
