//! The golden functional oracle.
//!
//! A deliberately simple model of what the HMC command set does to
//! memory (§II semantics, as implemented by `hmc-mem`): byte-accurate
//! shadow storage plus a table of the responses the device still owes.
//! It knows nothing about timing — under the fuzzer's block-ownership
//! discipline (see the crate docs) program order equals memory order,
//! so applying each operation at issue time yields the exact bytes
//! every read response must carry.

use std::collections::HashMap;

use hmc_core::ResponseInfo;
use hmc_types::{Command, ResponseStatus};
use hmc_workloads::{MemOp, OpKind};

/// Shadow-memory granule size in bytes (covers the 16-byte atomics).
const GRANULE: usize = 16;

/// What the device owes for one in-flight tag.
#[derive(Debug, Clone)]
struct Expected {
    /// Index of the operation in the fuzz stream (for diagnostics).
    op_index: usize,
    /// The response command class the device must produce.
    cmd: Command,
    /// Exact payload bytes of the response (empty for write responses).
    data: Vec<u8>,
    /// The link-retry protocol will exhaust on this packet: the device
    /// owes a poisoned `ErrorResponse` (LinkPoisoned ERRSTAT, DINV set,
    /// no data) instead of the functional response, and the operation
    /// never reaches memory.
    poisoned: bool,
}

/// The functional oracle: sparse byte-accurate shadow memory plus the
/// response ledger.
///
/// Drive it in lock-step with the engine: [`Oracle::issue`] when a
/// request is accepted, [`Oracle::check_response`] for every response
/// drained. At quiesce, [`Oracle::outstanding`] must be zero.
#[derive(Debug, Default)]
pub struct Oracle {
    mem: HashMap<u64, [u8; GRANULE]>,
    in_flight: HashMap<u16, Expected>,
    /// Operations applied (posted included).
    pub applied: u64,
    /// Responses checked good.
    pub checked: u64,
}

impl Oracle {
    /// A fresh oracle over all-zero memory.
    pub fn new() -> Self {
        Oracle::default()
    }

    /// Tags with a response still owed.
    pub fn outstanding(&self) -> usize {
        self.in_flight.len()
    }

    fn read_bytes(&self, addr: u64, buf: &mut [u8]) {
        for (i, b) in buf.iter_mut().enumerate() {
            let a = addr + i as u64;
            *b = self
                .mem
                .get(&(a / GRANULE as u64))
                .map_or(0, |g| g[(a % GRANULE as u64) as usize]);
        }
    }

    fn write_bytes(&mut self, addr: u64, data: &[u8]) {
        for (i, &b) in data.iter().enumerate() {
            let a = addr + i as u64;
            self.mem.entry(a / GRANULE as u64).or_insert([0; GRANULE])
                [(a % GRANULE as u64) as usize] = b;
        }
    }

    fn read_u64(&self, addr: u64) -> u64 {
        let mut buf = [0u8; 8];
        self.read_bytes(addr, &mut buf);
        u64::from_le_bytes(buf)
    }

    fn write_u64(&mut self, addr: u64, v: u64) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// Apply one accepted operation: update shadow memory and, for
    /// non-posted operations, record the response the device now owes
    /// under `tag`.
    ///
    /// `payload` is the request payload exactly as handed to the
    /// engine (write data; two u64 operands for atomics; data+mask for
    /// BWR; empty for reads).
    pub fn issue(&mut self, op_index: usize, op: &MemOp, tag: Option<u16>, payload: &[u8]) {
        let expected = match op.kind {
            OpKind::Read => {
                let mut data = vec![0u8; op.size.bytes()];
                self.read_bytes(op.addr, &mut data);
                Some((Command::RdResponse, data))
            }
            OpKind::Write => {
                self.write_bytes(op.addr, payload);
                Some((Command::WrResponse, Vec::new()))
            }
            OpKind::PostedWrite => {
                self.write_bytes(op.addr, payload);
                None
            }
            OpKind::TwoAdd8 => {
                let (op0, op1) = two_words(payload);
                let old0 = self.read_u64(op.addr);
                let old1 = self.read_u64(op.addr + 8);
                self.write_u64(op.addr, old0.wrapping_add(op0));
                self.write_u64(op.addr + 8, old1.wrapping_add(op1));
                Some((Command::WrResponse, Vec::new()))
            }
            OpKind::Add16 => {
                let (lo, hi) = two_words(payload);
                let operand = (lo as u128) | ((hi as u128) << 64);
                let mut buf = [0u8; 16];
                self.read_bytes(op.addr, &mut buf);
                let old = u128::from_le_bytes(buf);
                self.write_bytes(op.addr, &old.wrapping_add(operand).to_le_bytes());
                Some((Command::WrResponse, Vec::new()))
            }
            OpKind::BitWrite => {
                let (data, mask) = two_words(payload);
                let old = self.read_u64(op.addr);
                self.write_u64(op.addr, (old & !mask) | (data & mask));
                Some((Command::WrResponse, Vec::new()))
            }
        };
        self.applied += 1;
        if let Some((cmd, data)) = expected {
            let tag = tag.expect("non-posted operations carry a tag");
            let prev = self
                .in_flight
                .insert(tag, Expected { op_index, cmd, data, poisoned: false });
            assert!(prev.is_none(), "oracle: tag {tag} reissued while in flight");
        }
    }

    /// Record an accepted operation the link-retry protocol is known
    /// (by [`hmc_core::fault::predicts_poison`]) to abandon: the packet
    /// dies at the crossbar, so shadow memory is *not* updated, and for
    /// non-posted operations the device owes exactly one poisoned
    /// `ErrorResponse` under `tag`. Poisoned posted writes vanish
    /// entirely — no memory effect, no response.
    pub fn issue_poisoned(&mut self, op_index: usize, op: &MemOp, tag: Option<u16>) {
        self.applied += 1;
        if !op.expects_response() {
            return;
        }
        let tag = tag.expect("non-posted operations carry a tag");
        let prev = self.in_flight.insert(
            tag,
            Expected {
                op_index,
                cmd: Command::ErrorResponse,
                data: Vec::new(),
                poisoned: true,
            },
        );
        assert!(prev.is_none(), "oracle: tag {tag} reissued while in flight");
    }

    /// Check one drained response against the ledger. `Err` carries a
    /// human-readable divergence description.
    pub fn check_response(&mut self, rsp: &ResponseInfo) -> Result<usize, String> {
        self.check(rsp, false).map(|(idx, _)| idx)
    }

    /// Like [`Oracle::check_response`], but read-data mismatches are
    /// *tolerated* and tallied instead of failing: returns `(op index,
    /// mismatched bit count)`. Used by the cell-fault detection runs,
    /// where injected bit flips make corrupted read data the expected
    /// observation — every other divergence class still errors.
    pub fn check_response_lenient(&mut self, rsp: &ResponseInfo) -> Result<(usize, u64), String> {
        self.check(rsp, true)
    }

    fn check(&mut self, rsp: &ResponseInfo, lenient: bool) -> Result<(usize, u64), String> {
        let exp = self.in_flight.remove(&rsp.tag).ok_or_else(|| {
            format!("response for tag {} which has no request in flight", rsp.tag)
        })?;
        let at = format!("op #{} (tag {})", exp.op_index, rsp.tag);
        if exp.poisoned {
            // The fault stream predicted retry exhaustion at issue time:
            // the only acceptable outcome is the poisoned error frame.
            if rsp.status != ResponseStatus::LinkPoisoned {
                return Err(format!(
                    "{at}: predicted poison came back with status {:?}",
                    rsp.status
                ));
            }
            if rsp.cmd != exp.cmd {
                return Err(format!(
                    "{at}: poisoned response class {} where the oracle expects {}",
                    rsp.cmd.mnemonic(),
                    exp.cmd.mnemonic()
                ));
            }
            if !rsp.data_invalid {
                return Err(format!("{at}: poisoned response without DINV"));
            }
            if !rsp.data.is_empty() {
                return Err(format!(
                    "{at}: poisoned response carries {} data bytes",
                    rsp.data.len()
                ));
            }
            self.checked += 1;
            return Ok((exp.op_index, 0));
        }
        if rsp.status != ResponseStatus::Ok {
            return Err(format!("{at}: error status {:?}", rsp.status));
        }
        if rsp.cmd != exp.cmd {
            return Err(format!(
                "{at}: response class {} where the oracle expects {}",
                rsp.cmd.mnemonic(),
                exp.cmd.mnemonic()
            ));
        }
        if rsp.data_invalid {
            return Err(format!("{at}: DINV set on a successful response"));
        }
        if *rsp.data != *exp.data {
            if !lenient || rsp.data.len() != exp.data.len() {
                return Err(format!(
                    "{at}: read data mismatch — engine {:02x?}.. oracle {:02x?}.. ({} bytes)",
                    &rsp.data[..rsp.data.len().min(8)],
                    &exp.data[..exp.data.len().min(8)],
                    exp.data.len()
                ));
            }
            let bits: u64 = rsp
                .data
                .iter()
                .zip(&exp.data)
                .map(|(a, b)| (a ^ b).count_ones() as u64)
                .sum();
            self.checked += 1;
            return Ok((exp.op_index, bits));
        }
        self.checked += 1;
        Ok((exp.op_index, 0))
    }
}

/// Split a 16-byte atomic payload into its two little-endian u64 words
/// — the exact decoding `Packet::data_words` performs device-side.
fn two_words(payload: &[u8]) -> (u64, u64) {
    let w = |i: usize| {
        let mut b = [0u8; 8];
        b.copy_from_slice(&payload[i..i + 8]);
        u64::from_le_bytes(b)
    };
    (w(0), w(8))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_core::ResponseData;
    use hmc_types::BlockSize;

    fn rd(addr: u64, size: BlockSize) -> MemOp {
        MemOp::read(addr, size)
    }

    fn rsp(cmd: Command, tag: u16, data: Vec<u8>) -> ResponseInfo {
        ResponseInfo {
            cmd,
            tag,
            status: ResponseStatus::Ok,
            data_invalid: false,
            data: ResponseData::new(&data),
            slid: 0,
        }
    }

    #[test]
    fn fresh_memory_reads_zero() {
        let mut o = Oracle::new();
        o.issue(0, &rd(0x400, BlockSize::B32), Some(7), &[]);
        o.check_response(&rsp(Command::RdResponse, 7, vec![0; 32])).unwrap();
        assert_eq!(o.checked, 1);
        assert_eq!(o.outstanding(), 0);
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut o = Oracle::new();
        let data: Vec<u8> = (0..64).collect();
        o.issue(0, &MemOp::write(0x1000, BlockSize::B64), Some(1), &data);
        o.check_response(&rsp(Command::WrResponse, 1, vec![])).unwrap();
        o.issue(1, &rd(0x1000, BlockSize::B64), Some(2), &[]);
        o.check_response(&rsp(Command::RdResponse, 2, data)).unwrap();
    }

    #[test]
    fn two_add8_matches_bank_semantics() {
        let mut o = Oracle::new();
        let mut payload = [0u8; 16];
        payload[..8].copy_from_slice(&3u64.to_le_bytes());
        payload[8..].copy_from_slice(&u64::MAX.to_le_bytes());
        let op = MemOp { kind: OpKind::TwoAdd8, addr: 0x40, size: BlockSize::B16 };
        o.issue(0, &op, Some(1), &payload);
        o.issue(1, &op, Some(2), &payload);
        // 3 + 3 at 0x40; MAX + MAX wraps to ..FE at 0x48.
        let mut expect = vec![0u8; 16];
        expect[..8].copy_from_slice(&6u64.to_le_bytes());
        expect[8..].copy_from_slice(&u64::MAX.wrapping_add(u64::MAX).to_le_bytes());
        o.issue(2, &rd(0x40, BlockSize::B16), Some(3), &[]);
        o.check_response(&rsp(Command::RdResponse, 3, expect)).unwrap();
    }

    #[test]
    fn add16_carries_across_the_low_word() {
        let mut o = Oracle::new();
        let mut payload = [0u8; 16];
        payload[..8].copy_from_slice(&u64::MAX.to_le_bytes()); // lo
        payload[8..].copy_from_slice(&0u64.to_le_bytes()); // hi
        let op = MemOp { kind: OpKind::Add16, addr: 0x80, size: BlockSize::B16 };
        o.issue(0, &op, Some(1), &payload);
        o.issue(1, &op, Some(2), &payload);
        let sum = (u64::MAX as u128).wrapping_mul(2);
        o.issue(2, &rd(0x80, BlockSize::B16), Some(3), &[]);
        o.check_response(&rsp(Command::RdResponse, 3, sum.to_le_bytes().to_vec()))
            .unwrap();
    }

    #[test]
    fn bit_write_respects_the_mask()  {
        let mut o = Oracle::new();
        o.issue(0, &MemOp::write(0, BlockSize::B16), Some(1), &[0xff; 16]);
        let mut payload = [0u8; 16];
        payload[..8].copy_from_slice(&0u64.to_le_bytes()); // data
        payload[8..].copy_from_slice(&0x00ff_00ff_00ff_00ffu64.to_le_bytes()); // mask
        let op = MemOp { kind: OpKind::BitWrite, addr: 0, size: BlockSize::B16 };
        o.issue(1, &op, Some(2), &payload);
        let mut expect = vec![0xffu8; 16];
        for i in [0usize, 2, 4, 6] {
            expect[i] = 0; // mask-set bytes cleared by the zero data
        }
        o.issue(2, &rd(0, BlockSize::B16), Some(3), &[]);
        o.check_response(&rsp(Command::RdResponse, 3, expect)).unwrap();
    }

    #[test]
    fn posted_writes_apply_without_a_ledger_entry() {
        let mut o = Oracle::new();
        let op = MemOp { kind: OpKind::PostedWrite, addr: 0x200, size: BlockSize::B16 };
        o.issue(0, &op, None, &[0xaa; 16]);
        assert_eq!(o.outstanding(), 0);
        o.issue(1, &rd(0x200, BlockSize::B16), Some(1), &[]);
        o.check_response(&rsp(Command::RdResponse, 1, vec![0xaa; 16])).unwrap();
    }

    #[test]
    fn lenient_checks_tally_flipped_bits_but_still_catch_protocol_errors() {
        let mut o = Oracle::new();
        o.issue(0, &rd(0, BlockSize::B16), Some(4), &[]);
        // Three bits flipped across two bytes: tolerated, tallied.
        let mut data = vec![0u8; 16];
        data[0] = 0b101;
        data[9] = 0b1000;
        let (idx, bits) = o.check_response_lenient(&rsp(Command::RdResponse, 4, data)).unwrap();
        assert_eq!((idx, bits), (0, 3));
        assert_eq!(o.checked, 1);
        // Clean data tallies zero.
        o.issue(1, &rd(0, BlockSize::B16), Some(5), &[]);
        let (_, bits) = o.check_response_lenient(&rsp(Command::RdResponse, 5, vec![0; 16])).unwrap();
        assert_eq!(bits, 0);
        // A wrong response class is NOT tolerated.
        o.issue(2, &rd(0, BlockSize::B16), Some(6), &[]);
        assert!(o.check_response_lenient(&rsp(Command::WrResponse, 6, vec![])).is_err());
        // Nor is a length mismatch.
        o.issue(3, &rd(0, BlockSize::B16), Some(7), &[]);
        let err = o.check_response_lenient(&rsp(Command::RdResponse, 7, vec![0; 8])).unwrap_err();
        assert!(err.contains("mismatch"), "{err}");
    }

    fn poison(tag: u16) -> ResponseInfo {
        ResponseInfo {
            cmd: Command::ErrorResponse,
            tag,
            status: ResponseStatus::LinkPoisoned,
            data_invalid: true,
            data: ResponseData::new(&[]),
            slid: 0,
        }
    }

    #[test]
    fn predicted_poisons_demand_the_poisoned_error_frame() {
        let mut o = Oracle::new();
        // The poisoned write dies at the crossbar: memory is untouched.
        o.issue_poisoned(0, &MemOp::write(0x100, BlockSize::B16), Some(1));
        o.check_response(&poison(1)).unwrap();
        o.issue(1, &rd(0x100, BlockSize::B16), Some(2), &[]);
        o.check_response(&rsp(Command::RdResponse, 2, vec![0; 16])).unwrap();
        assert_eq!(o.outstanding(), 0);
    }

    #[test]
    fn poison_mispredictions_fail_both_ways() {
        let mut o = Oracle::new();
        // Predicted poison delivered clean: conformance failure.
        o.issue_poisoned(0, &rd(0, BlockSize::B16), Some(3));
        let err = o
            .check_response(&rsp(Command::RdResponse, 3, vec![0; 16]))
            .unwrap_err();
        assert!(err.contains("predicted poison"), "{err}");
        // Unpredicted poison delivered: also a failure.
        o.issue(1, &rd(0, BlockSize::B16), Some(4), &[]);
        let err = o.check_response(&poison(4)).unwrap_err();
        assert!(err.contains("error status"), "{err}");
        // Poison without DINV: failure.
        o.issue_poisoned(2, &rd(0, BlockSize::B16), Some(5));
        let mut p = poison(5);
        p.data_invalid = false;
        let err = o.check_response(&p).unwrap_err();
        assert!(err.contains("DINV"), "{err}");
    }

    #[test]
    fn poisoned_posted_writes_vanish_entirely() {
        let mut o = Oracle::new();
        let op = MemOp { kind: OpKind::PostedWrite, addr: 0x200, size: BlockSize::B16 };
        o.issue_poisoned(0, &op, None);
        assert_eq!(o.outstanding(), 0, "no response owed");
        o.issue(1, &rd(0x200, BlockSize::B16), Some(1), &[]);
        o.check_response(&rsp(Command::RdResponse, 1, vec![0; 16])).unwrap();
    }

    #[test]
    fn divergences_are_reported() {
        let mut o = Oracle::new();
        o.issue(0, &rd(0, BlockSize::B16), Some(4), &[]);
        let err = o
            .check_response(&rsp(Command::RdResponse, 4, vec![1; 16]))
            .unwrap_err();
        assert!(err.contains("mismatch"), "{err}");
        // Orphan response: nothing in flight any more.
        let err = o.check_response(&rsp(Command::WrResponse, 4, vec![])).unwrap_err();
        assert!(err.contains("no request in flight"), "{err}");
    }
}
