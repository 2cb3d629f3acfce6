//! Slab-backed transaction queue with per-(rank, bank) FCFS buckets.
//!
//! The FR-FCFS scheduler needs, per bank, the oldest transaction of a given
//! class — never an arbitrary queue scan. Storing transactions in a slab and
//! threading per-bank `VecDeque` buckets of slot indices through it keeps
//! every lookup local to one bank while preserving global FCFS order via a
//! monotonically increasing sequence number stamped at enqueue. Per-rank
//! occupancy counters make the power manager's "does this rank have work"
//! probe O(1).

use std::collections::VecDeque;

use crate::mapping::Loc;
use crate::request::Token;

/// One queued transaction.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Txn {
    pub token: Token,
    pub loc: Loc,
    pub prefetch: bool,
    pub enqueue_mem: u64,
    pub classified: bool,
    /// Global FCFS order within the owning queue (enqueue order).
    pub seq: u64,
}

/// Indexed transaction queue: slab storage + per-(rank, bank) buckets.
#[derive(Debug)]
pub(crate) struct TxnQueue {
    slots: Vec<Option<Txn>>,
    free: Vec<u32>,
    /// FCFS bucket of slot indices per `rank * banks + bank`.
    buckets: Vec<VecDeque<u32>>,
    /// Queued-transaction count per rank.
    per_rank: Vec<u32>,
    /// Per-rank bitmask of banks with a non-empty bucket — lets the
    /// scheduler's selection passes skip empty buckets entirely instead of
    /// probing every `(rank, bank)` pair each cycle.
    occ: Vec<u64>,
    banks: usize,
    len: usize,
    next_seq: u64,
}

impl TxnQueue {
    pub fn new(ranks: u32, banks: u32) -> Self {
        assert!(banks <= 64, "bank occupancy mask is a u64");
        TxnQueue {
            slots: Vec::new(),
            free: Vec::new(),
            buckets: vec![VecDeque::new(); (ranks * banks) as usize],
            per_rank: vec![0; ranks as usize],
            occ: vec![0; ranks as usize],
            banks: banks as usize,
            len: 0,
            next_seq: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Does `rank` have any queued transaction? O(1).
    pub fn rank_busy(&self, rank: usize) -> bool {
        self.per_rank[rank] > 0
    }

    /// Bitmask of banks on `rank` whose bucket is non-empty. O(1).
    pub fn busy_banks(&self, rank: usize) -> u64 {
        self.occ[rank]
    }

    fn bucket_idx(&self, loc: &Loc) -> usize {
        usize::from(loc.rank) * self.banks + usize::from(loc.bank)
    }

    /// Append a transaction (caller enforces capacity). Returns its slot.
    pub fn push(&mut self, token: Token, loc: Loc, prefetch: bool, enqueue_mem: u64) -> u32 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let txn = Txn { token, loc, prefetch, enqueue_mem, classified: false, seq };
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(txn);
                s
            }
            None => {
                self.slots.push(Some(txn));
                (self.slots.len() - 1) as u32
            }
        };
        let b = self.bucket_idx(&loc);
        self.buckets[b].push_back(slot);
        self.per_rank[usize::from(loc.rank)] += 1;
        self.occ[usize::from(loc.rank)] |= 1u64 << loc.bank;
        self.len += 1;
        slot
    }

    /// Borrow the transaction in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is vacant.
    pub fn get(&self, slot: u32) -> &Txn {
        self.slots[slot as usize].as_ref().expect("vacant txn slot")
    }

    /// Mutably borrow the transaction in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is vacant.
    pub fn get_mut(&mut self, slot: u32) -> &mut Txn {
        self.slots[slot as usize].as_mut().expect("vacant txn slot")
    }

    /// Remove and return the transaction in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is vacant.
    pub fn remove(&mut self, slot: u32) -> Txn {
        let txn = self.slots[slot as usize].take().expect("vacant txn slot");
        let b = self.bucket_idx(&txn.loc);
        let pos =
            self.buckets[b].iter().position(|&s| s == slot).expect("slot missing from its bucket");
        self.buckets[b].remove(pos);
        if self.buckets[b].is_empty() {
            self.occ[usize::from(txn.loc.rank)] &= !(1u64 << txn.loc.bank);
        }
        self.per_rank[usize::from(txn.loc.rank)] -= 1;
        self.len -= 1;
        self.free.push(slot);
        txn
    }

    /// FCFS iterator over one bank's bucket.
    pub fn bucket(&self, rank: u8, bank: u8) -> impl Iterator<Item = (u32, &Txn)> + '_ {
        let b = usize::from(rank) * self.banks + usize::from(bank);
        self.buckets[b]
            .iter()
            .map(move |&s| (s, self.slots[s as usize].as_ref().expect("vacant txn slot")))
    }

    /// Globally oldest transaction (min seq over all bucket fronts).
    pub fn oldest(&self) -> Option<(u32, &Txn)> {
        let mut best: Option<(u32, &Txn)> = None;
        for (r, &mask) in self.occ.iter().enumerate() {
            let mut m = mask;
            while m != 0 {
                let b = m.trailing_zeros() as usize;
                m &= m - 1;
                let &s = self.buckets[r * self.banks + b].front().expect("occupied bucket");
                let t = self.slots[s as usize].as_ref().expect("vacant txn slot");
                if best.is_none_or(|(_, prev)| t.seq < prev.seq) {
                    best = Some((s, t));
                }
            }
        }
        best
    }

    /// Snapshot of all queued transactions in FCFS (seq) order — the
    /// linear-scan oracle for the pick-equivalence tests.
    #[cfg(test)]
    pub fn ordered(&self) -> Vec<(u32, Txn)> {
        let mut all: Vec<(u32, Txn)> =
            self.slots.iter().enumerate().filter_map(|(i, s)| s.map(|t| (i as u32, t))).collect();
        all.sort_by_key(|(_, t)| t.seq);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loc(rank: u8, bank: u8, row: u32) -> Loc {
        Loc { rank, bank, row, col: 0 }
    }

    #[test]
    fn buckets_preserve_fcfs_within_bank() {
        let mut q = TxnQueue::new(2, 8);
        let a = q.push(Token(1), loc(0, 3, 10), false, 0);
        let _b = q.push(Token(2), loc(0, 4, 11), false, 1);
        let c = q.push(Token(3), loc(0, 3, 12), false, 2);
        assert_eq!(q.len(), 3);
        assert!(q.rank_busy(0));
        assert!(!q.rank_busy(1));
        let seqs: Vec<u64> = q.bucket(0, 3).map(|(_, t)| t.seq).collect();
        assert_eq!(seqs, vec![0, 2]);
        let removed = q.remove(a);
        assert_eq!(removed.token, Token(1));
        assert_eq!(q.bucket(0, 3).next().unwrap().1.seq, 2);
        let (_, oldest) = q.oldest().unwrap();
        assert_eq!(oldest.token, Token(2));
        q.remove(c);
        assert!(q.bucket(0, 3).next().is_none());
    }

    #[test]
    fn slots_are_reused_and_order_survives() {
        let mut q = TxnQueue::new(1, 2);
        let a = q.push(Token(1), loc(0, 0, 1), false, 0);
        q.remove(a);
        let b = q.push(Token(2), loc(0, 1, 2), false, 0);
        assert_eq!(a, b, "freed slot is reused");
        assert_eq!(q.ordered().len(), 1);
        assert_eq!(q.oldest().unwrap().1.token, Token(2));
    }
}

cwf_ckpt::ckpt_struct!(Txn { token, loc, prefetch, enqueue_mem, classified, seq });

cwf_ckpt::ckpt_struct!(TxnQueue { slots, free, buckets, per_rank, occ, banks, len, next_seq });
