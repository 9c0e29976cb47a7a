//! Per-bank and per-rank timing state machines.

use nvsim_types::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use nvsim_types::Time;

/// State of one DRAM bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankState {
    /// All rows closed; an ACT may be issued once `next_act` is reached.
    Precharged,
    /// A row is open and column commands may target it.
    Active {
        /// The open row.
        row: u32,
    },
}

/// Timing bookkeeping for a single bank.
///
/// Each field holds the earliest time the named command may *issue*;
/// the model takes maxima across bank, rank and channel constraints.
#[derive(Debug, Clone)]
pub struct Bank {
    /// Current row-buffer state.
    pub state: BankState,
    /// Earliest allowed ACT.
    pub next_act: Time,
    /// Earliest allowed RD.
    pub next_read: Time,
    /// Earliest allowed WR.
    pub next_write: Time,
    /// Earliest allowed PRE.
    pub next_pre: Time,
    /// Issue time of the most recent ACT (for tRAS/tRC accounting).
    pub last_act: Time,
    /// Row-buffer hit statistics.
    pub row_hits: u64,
    /// Row-buffer miss (conflict or closed) statistics.
    pub row_misses: u64,
}

impl Default for Bank {
    fn default() -> Self {
        Bank {
            state: BankState::Precharged,
            next_act: Time::ZERO,
            next_read: Time::ZERO,
            next_write: Time::ZERO,
            next_pre: Time::ZERO,
            last_act: Time::ZERO,
            row_hits: 0,
            row_misses: 0,
        }
    }
}

impl Bank {
    /// True if `row` is currently open in this bank.
    pub fn row_open(&self, row: u32) -> bool {
        matches!(self.state, BankState::Active { row: r } if r == row)
    }
}

impl Snapshot for Bank {
    fn save(&self, w: &mut SnapshotWriter) {
        match self.state {
            BankState::Precharged => w.put_u8(0),
            BankState::Active { row } => {
                w.put_u8(1);
                w.put_u32(row);
            }
        }
        w.put_time(self.next_act);
        w.put_time(self.next_read);
        w.put_time(self.next_write);
        w.put_time(self.next_pre);
        w.put_time(self.last_act);
        w.put_u64(self.row_hits);
        w.put_u64(self.row_misses);
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.state = match r.get_u8()? {
            0 => BankState::Precharged,
            1 => BankState::Active { row: r.get_u32()? },
            _ => return Err(r.invalid("unknown bank state tag")),
        };
        self.next_act = r.get_time()?;
        self.next_read = r.get_time()?;
        self.next_write = r.get_time()?;
        self.next_pre = r.get_time()?;
        self.last_act = r.get_time()?;
        self.row_hits = r.get_u64()?;
        self.row_misses = r.get_u64()?;
        Ok(())
    }
}

impl Snapshot for RankWindow {
    fn save(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.act_times().len());
        for &t in self.act_times() {
            w.put_time(t);
        }
        w.put_time(self.next_act_rank);
        w.put_time(self.next_any);
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let n = r.get_usize()?;
        // `record_act` leaves at most 8 entries between ACTs; anything
        // larger is not a state this struct can produce.
        if n > ACT_WINDOW_KEPT {
            return Err(r.invalid("ACT window larger than its 8-entry bound"));
        }
        for t in &mut self.act_times[..n] {
            *t = r.get_time()?;
        }
        self.act_len = n;
        self.next_act_rank = r.get_time()?;
        self.next_any = r.get_time()?;
        Ok(())
    }
}

/// ACT times a [`RankWindow`] keeps between ACTs. The ninth ACT drops
/// the oldest four, so the window shifts once every four ACTs.
const ACT_WINDOW_KEPT: usize = 8;

/// Per-rank constraint tracking: the rolling four-activate window (tFAW)
/// and the earliest next ACT due to tRRD.
#[derive(Debug, Clone, Default)]
pub struct RankWindow {
    /// Issue times of the most recent ACTs, oldest first; the first
    /// `act_len` are live.
    act_times: [Time; ACT_WINDOW_KEPT + 1],
    act_len: usize,
    /// Earliest next ACT anywhere in the rank (tRRD).
    pub next_act_rank: Time,
    /// Earliest next command of any kind (post-refresh block).
    pub next_any: Time,
}

impl RankWindow {
    /// The live ACT times, oldest first.
    fn act_times(&self) -> &[Time] {
        &self.act_times[..self.act_len]
    }

    /// Earliest time a new ACT satisfies tFAW, given the window.
    #[inline]
    pub fn faw_constraint(&self, tfaw: Time) -> Time {
        if self.act_len < 4 {
            Time::ZERO
        } else {
            self.act_times[self.act_len - 4] + tfaw
        }
    }

    /// Records an ACT issue.
    #[inline]
    pub fn record_act(&mut self, at: Time) {
        self.act_times[self.act_len] = at;
        self.act_len += 1;
        if self.act_len > ACT_WINDOW_KEPT {
            self.act_times.copy_within(4.., 0);
            self.act_len -= 4;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_bank_is_precharged() {
        let b = Bank::default();
        assert_eq!(b.state, BankState::Precharged);
        assert!(!b.row_open(0));
    }

    #[test]
    fn row_open_matches_exact_row() {
        let b = Bank {
            state: BankState::Active { row: 7 },
            ..Bank::default()
        };
        assert!(b.row_open(7));
        assert!(!b.row_open(8));
    }

    #[test]
    fn faw_empty_window_unconstrained() {
        let w = RankWindow::default();
        assert_eq!(w.faw_constraint(Time::from_ns(30)), Time::ZERO);
    }

    #[test]
    fn faw_fourth_act_constrained_by_first() {
        let mut w = RankWindow::default();
        for i in 0..4 {
            w.record_act(Time::from_ns(10 * i));
        }
        // Fifth ACT must wait until first ACT + tFAW.
        assert_eq!(
            w.faw_constraint(Time::from_ns(35)),
            Time::from_ns(0) + Time::from_ns(35)
        );
        w.record_act(Time::from_ns(40));
        // Now the window is ACTs at 10,20,30,40 -> constraint 10+35=45.
        assert_eq!(w.faw_constraint(Time::from_ns(35)), Time::from_ns(45));
    }

    /// The heap window the inline array replaced: push, and drain the
    /// oldest four once a ninth ACT arrives.
    #[derive(Default)]
    struct VecWindow {
        act_times: Vec<Time>,
        next_act_rank: Time,
        next_any: Time,
    }

    impl VecWindow {
        fn faw_constraint(&self, tfaw: Time) -> Time {
            if self.act_times.len() < 4 {
                Time::ZERO
            } else {
                self.act_times[self.act_times.len() - 4] + tfaw
            }
        }

        fn record_act(&mut self, at: Time) {
            self.act_times.push(at);
            if self.act_times.len() > 8 {
                self.act_times.drain(..4);
            }
        }

        fn save(&self) -> Vec<u8> {
            let mut w = SnapshotWriter::new();
            w.put_usize(self.act_times.len());
            for &t in &self.act_times {
                w.put_time(t);
            }
            w.put_time(self.next_act_rank);
            w.put_time(self.next_any);
            w.into_bytes()
        }
    }

    fn save(w: &RankWindow) -> Vec<u8> {
        let mut out = SnapshotWriter::new();
        w.save(&mut out);
        out.into_bytes()
    }

    #[test]
    fn array_window_matches_vec_reference() {
        let mut rng = nvsim_types::DetRng::seed_from(0xfa3);
        let mut array = RankWindow::default();
        let mut reference = VecWindow::default();
        let mut now = Time::ZERO;
        let tfaw = Time::from_ns(21);
        for i in 0..1_000 {
            now += Time::from_ps(rng.range_u64(0, 20_000));
            array.record_act(now);
            reference.record_act(now);
            if i % 7 == 0 {
                array.next_act_rank = now + tfaw;
                reference.next_act_rank = now + tfaw;
                array.next_any = now;
                reference.next_any = now;
            }
            assert_eq!(array.faw_constraint(tfaw), reference.faw_constraint(tfaw));
            let bytes = save(&array);
            assert_eq!(bytes, reference.save(), "after ACT {i}");
            // A restored copy continues from the same window.
            let mut copy = RankWindow::default();
            let mut r = SnapshotReader::new(&bytes);
            copy.restore(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(save(&copy), bytes);
        }
        // A nine-entry window is not a state `record_act` leaves.
        let nine = VecWindow {
            act_times: (0..9).map(Time::from_ns).collect(),
            ..VecWindow::default()
        };
        let blob = nine.save();
        let err = RankWindow::default()
            .restore(&mut SnapshotReader::new(&blob))
            .unwrap_err();
        assert!(err.to_string().contains("8-entry"), "{err}");
    }

    #[test]
    fn act_window_is_bounded() {
        let mut w = RankWindow::default();
        for i in 0..100 {
            w.record_act(Time::from_ns(i));
        }
        assert!(w.act_times().len() <= 8);
        // Still correct: last four ACTs are 96..=99 -> constraint from t=96.
        assert_eq!(w.faw_constraint(Time::from_ns(10)), Time::from_ns(106));
    }
}
