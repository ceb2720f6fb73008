//! Packet queues.
//!
//! "All the queuing structures present in the HMC-Sim structure hierarchy
//! share the same software representation. Each queue contains one or more
//! queue slots … in order to act as a registered input or output logic
//! stage" (paper §IV.A). The C implementation scans fixed slot arrays with
//! valid bits; this port keeps the slot *semantics* (fixed depth ≥ 1, FIFO
//! arrival order, one packet per slot) in a ring buffer of *pointers* to
//! boxed entries, so a clock tick costs O(occupied slots), which the
//! 33.5-million-request Table I runs require, and a packet moving between
//! queues moves one pointer rather than its 200-byte slot.
//!
//! Each request lives in one box from [`crate::HmcSim::send`] until the
//! host receives its response: the vault (or the crossbar, for errors and
//! MODE accesses) rewrites the request into its response in the same box
//! ([`QueueEntry::respond`]), and every retired box returns to the
//! simulation's free list for the next send. DESIGN.md, "Packet
//! lifetime", lists where boxes retire.

use std::collections::VecDeque;

use hmc_types::{BankId, Command, CubeId, Cycle, LinkId, Packet, ResponseStatus, VaultId};

/// Sentinel for "not yet decoded" vault/bank coordinates.
pub const UNDECODED: u16 = u16::MAX;

/// A packet occupying a queue slot, with the simulator-side metadata that
/// the C implementation keeps alongside each slot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueueEntry {
    /// The packet itself (always sized for the maximal nine-FLIT packet).
    pub packet: Packet,
    /// Cycle at which the packet entered the *device* (latency tracking).
    pub entry_cycle: Cycle,
    /// Cycle at which the packet entered *this queue*.
    pub arrival_cycle: Cycle,
    /// Link on which the packet first entered the current device.
    pub arrival_link: LinkId,
    /// Cube that originated the packet (the host for requests; the
    /// device for responses).
    pub src_cube: CubeId,
    /// Final destination cube (device for requests, host for responses).
    pub dest_cube: CubeId,
    /// Chaining hops taken so far (zombie detection, §V.B).
    pub hops: u32,
    /// Decoded destination vault ([`UNDECODED`] until the crossbar
    /// resolves it; flow/mode packets never resolve one).
    pub dest_vault: VaultId,
    /// Decoded destination bank ([`UNDECODED`] until resolved).
    pub dest_bank: BankId,
    /// Decoded destination DRAM row (meaningful once `dest_vault` is
    /// resolved; the DDR timing backend keys row-buffer state on it).
    pub dest_row: u64,
    /// Corrupted in link transit (error simulation); cleared when the
    /// receiving crossbar detects it and models the retransmission.
    pub corrupt: bool,
    /// Cycle until which the packet is held for link retransmission.
    pub retry_until: Cycle,
    /// Transmission attempts so far: 0 until the first corruption is
    /// detected, then incremented per detection. A packet whose attempt
    /// count exceeds the configured retry limit while still corrupt is
    /// aborted with a poisoned response.
    pub attempt: u32,
    /// The link's monotonic send-sequence slot this packet occupied at
    /// injection — the stable key of its deterministic corruption
    /// stream.
    pub send_seq: u64,
}

impl QueueEntry {
    /// Wrap a packet with fresh metadata.
    pub fn new(packet: Packet, src_cube: CubeId, dest_cube: CubeId, cycle: Cycle) -> Self {
        let mut e = QueueEntry {
            packet,
            ..QueueEntry::default()
        };
        e.renew(src_cube, dest_cube, cycle);
        e
    }

    /// Reset every metadata field to that of a packet from `src_cube` to
    /// `dest_cube` entering the device at `cycle`, leaving the packet.
    fn renew(&mut self, src_cube: CubeId, dest_cube: CubeId, cycle: Cycle) {
        self.entry_cycle = cycle;
        self.arrival_cycle = cycle;
        self.arrival_link = 0;
        self.src_cube = src_cube;
        self.dest_cube = dest_cube;
        self.hops = 0;
        self.dest_vault = UNDECODED;
        self.dest_bank = UNDECODED;
        self.dest_row = 0;
        self.corrupt = false;
        self.retry_until = 0;
        self.attempt = 0;
        self.send_seq = 0;
    }

    /// Turn this request entry into its response, in place.
    ///
    /// The packet becomes the `cmd` response carrying `status` and
    /// `data`, echoing the request's tag and SLID ([`Packet::write_response`]).
    /// The metadata becomes that of a fresh response entry sent by
    /// `device` at `cycle` back to the request's source cube, except that
    /// it keeps the request's device-entry stamp (so host-observed latency
    /// spans the whole round trip) and arrival link (responses exit on
    /// the link the request arrived on, §III.C). Hops, decode, retry and
    /// SEQ state are cleared.
    ///
    /// # Panics
    /// Panics if `cmd` is not a response command or `data` exceeds 128
    /// bytes.
    pub fn respond(
        &mut self,
        cmd: Command,
        status: ResponseStatus,
        data: &[u8],
        device: CubeId,
        cycle: Cycle,
    ) {
        let (tag, slid) = (self.packet.tag(), self.packet.slid());
        self.packet
            .write_response(cmd, tag, slid, status, data)
            .expect("response commands build valid responses");
        let (entry_cycle, arrival_link) = (self.entry_cycle, self.arrival_link);
        self.renew(device, self.src_cube, cycle);
        self.entry_cycle = entry_cycle;
        self.arrival_link = arrival_link;
    }

    /// True once the crossbar has resolved vault/bank coordinates.
    pub fn is_decoded(&self) -> bool {
        self.dest_vault != UNDECODED
    }

    /// True while the entry is held for link retransmission at `clock`:
    /// the crossbar already detected a corruption and armed
    /// `retry_until`, and the retry timer has not yet expired. The gate
    /// holds regardless of whether the in-flight retransmission is
    /// itself fated to arrive corrupt (`corrupt` pre-decides the next
    /// attempt's fate; it is only *observable* once the timer expires
    /// and the walk re-checks the head). An undetected corruption
    /// (`corrupt` with a lapsed timer) is *not* gated — its detection
    /// is itself an observable state change the crossbar walk must
    /// perform. Shared by the stepped walk (which breaks the link on a
    /// gated head) and the fast-forward horizon (which treats the gated
    /// span as dead time).
    pub fn retry_gated(&self, clock: Cycle) -> bool {
        self.retry_until > clock
    }
}

/// Spare queue-entry boxes. [`crate::HmcSim::send`] takes the box for a
/// new request here, and every place a packet retires gives its box
/// back, so a steady packet stream allocates nothing once the list has
/// grown to the peak number of packets in flight.
#[derive(Debug, Default)]
pub struct FreeList {
    // Boxed on purpose: queues hold these boxes, and moving one between
    // a queue and this list moves a pointer, not a 200-byte entry.
    #[allow(clippy::vec_box)]
    spare: Vec<Box<QueueEntry>>,
}

impl FreeList {
    /// [`QueueEntry::new`] in a box: a spare one when there is one (the
    /// packet is written into it once), else a new one.
    pub fn boxed(
        &mut self,
        packet: Packet,
        src_cube: CubeId,
        dest_cube: CubeId,
        cycle: Cycle,
    ) -> Box<QueueEntry> {
        match self.spare.pop() {
            Some(mut slot) => {
                slot.packet = packet;
                slot.renew(src_cube, dest_cube, cycle);
                slot
            }
            None => Box::new(QueueEntry::new(packet, src_cube, dest_cube, cycle)),
        }
    }

    /// Give back the box of a retired packet.
    pub fn recycle(&mut self, retired: Box<QueueEntry>) {
        self.spare.push(retired);
    }

    /// Move every box of `other` into this list.
    pub fn absorb(&mut self, other: &mut FreeList) {
        self.spare.append(&mut other.spare);
    }

    /// True when no box is spare.
    pub fn is_empty(&self) -> bool {
        self.spare.is_empty()
    }
}

/// A fixed-depth FIFO of queue slots, each holding a boxed entry.
#[derive(Debug)]
pub struct PacketQueue {
    depth: usize,
    slots: VecDeque<Box<QueueEntry>>,
}

impl PacketQueue {
    /// Create a queue of `depth` slots.
    ///
    /// # Panics
    /// Panics if `depth` is zero — "there must exist at least one queue
    /// slot for each logical queue representation" (§IV.A).
    pub fn new(depth: usize) -> Self {
        assert!(depth >= 1, "queues must have at least one slot");
        PacketQueue {
            depth,
            slots: VecDeque::with_capacity(depth),
        }
    }

    /// Configured slot count.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Occupied slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no slot is valid.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// True when every slot is valid (arrivals must stall).
    pub fn is_full(&self) -> bool {
        self.slots.len() >= self.depth
    }

    /// Free slots remaining.
    pub fn free_slots(&self) -> usize {
        self.depth - self.slots.len()
    }

    /// Enqueue at the tail; returns the entry back on overflow so the
    /// caller can leave it in its upstream queue (a stall).
    pub fn push(&mut self, entry: Box<QueueEntry>) -> Result<(), Box<QueueEntry>> {
        if self.is_full() {
            return Err(entry);
        }
        self.slots.push_back(entry);
        Ok(())
    }

    /// Dequeue from the head.
    pub fn pop(&mut self) -> Option<Box<QueueEntry>> {
        self.slots.pop_front()
    }

    /// Peek at the head without removing.
    pub fn front(&self) -> Option<&QueueEntry> {
        self.slots.front().map(|e| &**e)
    }

    /// Peek at slot `i` (0 = head).
    pub fn get(&self, i: usize) -> Option<&QueueEntry> {
        self.slots.get(i).map(|e| &**e)
    }

    /// Mutable peek at slot `i` (0 = head).
    pub fn get_mut(&mut self, i: usize) -> Option<&mut QueueEntry> {
        self.slots.get_mut(i).map(|e| &mut **e)
    }

    /// Remove slot `i` (0 = head), preserving the order of the rest.
    /// Used by the crossbar's pass-ahead walk, where a stalled packet may
    /// be passed by later packets bound elsewhere (§III.C weak ordering).
    pub fn remove(&mut self, i: usize) -> Option<Box<QueueEntry>> {
        self.slots.remove(i)
    }

    /// Re-insert an entry at the head (an entry popped for processing
    /// that must stall keeps its queue position).
    pub fn push_front(&mut self, entry: Box<QueueEntry>) {
        assert!(
            self.slots.len() < self.depth,
            "push_front into a full queue"
        );
        self.slots.push_front(entry);
    }

    /// Iterate entries head-to-tail.
    pub fn iter(&self) -> impl Iterator<Item = &QueueEntry> {
        self.slots.iter().map(|e| &**e)
    }

    /// Total FLITs resident across all occupied slots. Token-conservation
    /// checks compare this against the FLITs outstanding on the feeding
    /// link.
    pub fn resident_flits(&self) -> u32 {
        self.slots.iter().map(|e| e.packet.lng() as u32).sum()
    }

    /// Drop every entry (device reset).
    pub fn clear(&mut self) {
        self.slots.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_types::BlockSize;

    fn entry(tag: u16) -> Box<QueueEntry> {
        let p = Packet::request(Command::Rd(BlockSize::B16), 0, 0, tag, 0, &[]).unwrap();
        Box::new(QueueEntry::new(p, 5, 0, 0))
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut q = PacketQueue::new(4);
        for t in 0..4 {
            q.push(entry(t)).unwrap();
        }
        for t in 0..4 {
            assert_eq!(q.pop().unwrap().packet.tag(), t);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn full_queue_returns_the_entry() {
        let mut q = PacketQueue::new(2);
        q.push(entry(0)).unwrap();
        q.push(entry(1)).unwrap();
        assert!(q.is_full());
        let back = q.push(entry(2)).unwrap_err();
        assert_eq!(back.packet.tag(), 2, "rejected entry comes back intact");
        assert_eq!(q.len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_depth_rejected() {
        PacketQueue::new(0);
    }

    #[test]
    fn single_slot_queue_works() {
        // The minimum legal queue: one slot (§IV.A).
        let mut q = PacketQueue::new(1);
        q.push(entry(9)).unwrap();
        assert!(q.is_full());
        assert_eq!(q.pop().unwrap().packet.tag(), 9);
        assert!(q.is_empty());
    }

    #[test]
    fn remove_preserves_order_of_rest() {
        let mut q = PacketQueue::new(4);
        for t in 0..4 {
            q.push(entry(t)).unwrap();
        }
        let removed = q.remove(1).unwrap();
        assert_eq!(removed.packet.tag(), 1);
        let rest: Vec<u16> = std::iter::from_fn(|| q.pop())
            .map(|e| e.packet.tag())
            .collect();
        assert_eq!(rest, vec![0, 2, 3]);
    }

    #[test]
    fn push_front_restores_head_position() {
        let mut q = PacketQueue::new(4);
        q.push(entry(0)).unwrap();
        q.push(entry(1)).unwrap();
        let head = q.pop().unwrap();
        q.push_front(head);
        assert_eq!(q.front().unwrap().packet.tag(), 0);
    }

    #[test]
    fn free_slot_accounting() {
        let mut q = PacketQueue::new(3);
        assert_eq!(q.free_slots(), 3);
        q.push(entry(0)).unwrap();
        assert_eq!(q.free_slots(), 2);
        q.pop();
        assert_eq!(q.free_slots(), 3);
    }

    #[test]
    fn entry_metadata_defaults() {
        let e = entry(3);
        assert_eq!(e.src_cube, 5);
        assert_eq!(e.hops, 0);
        assert!(!e.is_decoded());
        assert_eq!(e.dest_vault, UNDECODED);
    }

    #[test]
    fn retry_gating_tracks_timer_and_corruption() {
        let mut e = entry(1);
        assert!(!e.retry_gated(0), "fresh entries are not gated");
        e.retry_until = 10;
        assert!(e.retry_gated(5));
        assert!(e.retry_gated(9));
        assert!(!e.retry_gated(10), "timer expiry cycle is live");
        e.corrupt = true;
        assert!(
            e.retry_gated(5),
            "an armed timer gates even when the in-flight retransmission is fated corrupt"
        );
        assert!(
            !e.retry_gated(10),
            "undetected corruption with a lapsed timer is live work"
        );
    }

    #[test]
    fn respond_matches_a_fresh_response_entry() {
        // The request's metadata is dirty in every field a response must
        // clear or rewrite.
        let payload: Vec<u8> = (0..64u8).collect();
        let p = Packet::request(Command::Wr(BlockSize::B64), 2, 0x1c0, 77, 3, &payload).unwrap();
        let mut req = QueueEntry::new(p, 6, 2, 10);
        req.arrival_cycle = 14;
        req.arrival_link = 3;
        req.hops = 2;
        req.dest_vault = 4;
        req.dest_bank = 1;
        req.dest_row = 9;
        req.corrupt = true;
        req.retry_until = 40;
        req.attempt = 2;
        req.send_seq = 123;
        for (cmd, status, data) in [
            (Command::WrResponse, ResponseStatus::Ok, &[][..]),
            (Command::RdResponse, ResponseStatus::Ok, &payload[..]),
            (
                Command::ErrorResponse,
                ResponseStatus::AddressError,
                &[][..],
            ),
        ] {
            // The path `respond` replaced: a new response packet in a new
            // entry, with the request's entry stamp and arrival link
            // copied over.
            let rsp = Packet::response(cmd, req.packet.tag(), req.packet.slid(), status, data);
            let mut fresh = QueueEntry::new(rsp.unwrap(), 2, req.src_cube, 50);
            fresh.entry_cycle = req.entry_cycle;
            fresh.arrival_link = req.arrival_link;
            let mut turned = req.clone();
            turned.respond(cmd, status, data, 2, 50);
            assert_eq!(turned, fresh, "{cmd:?}");
        }
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = PacketQueue::new(4);
        q.push(entry(0)).unwrap();
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.free_slots(), 4);
    }

    #[test]
    fn get_and_iter_view_slots_in_order() {
        let mut q = PacketQueue::new(4);
        for t in 0..3 {
            q.push(entry(t)).unwrap();
        }
        assert_eq!(q.get(0).unwrap().packet.tag(), 0);
        assert_eq!(q.get(2).unwrap().packet.tag(), 2);
        assert!(q.get(3).is_none());
        let tags: Vec<u16> = q.iter().map(|e| e.packet.tag()).collect();
        assert_eq!(tags, vec![0, 1, 2]);
    }
}
