//! The virtual bank the market administrator runs (paper §III-A):
//! every market resident holds exactly one account opened with
//! authentic identity, credits are conserved, and the ledger is the
//! ground truth the privacy analysis quantifies over.

use crate::error::MarketError;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// An account identifier (`AID` in the paper) — equivalent to the
/// resident's real identity and therefore the thing the mechanisms
/// must keep unlinkable from job pseudonyms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AccountId(pub u64);

/// The ledger. Thread-safe; clones share state.
#[derive(Debug, Clone, Default)]
pub struct Bank {
    inner: Arc<RwLock<BankInner>>,
}

#[derive(Debug, Default)]
struct BankInner {
    next_id: u64,
    balances: HashMap<AccountId, u64>,
}

impl Bank {
    /// Fresh empty bank.
    pub fn new() -> Bank {
        Bank::default()
    }

    /// Opens an account with an initial balance, returning its AID.
    pub fn open_account(&self, initial: u64) -> AccountId {
        let id = self.reserve_id();
        self.restore_account(id, initial);
        id
    }

    /// Takes the next account id without opening its account;
    /// [`Bank::restore_account`] opens it.
    pub fn reserve_id(&self) -> AccountId {
        let mut inner = self.inner.write();
        inner.next_id += 1;
        AccountId(inner.next_id - 1)
    }

    /// Hands back a reserved `id` whose account never opened, if no
    /// later id has been taken since.
    pub fn release_id(&self, id: AccountId) {
        let mut inner = self.inner.write();
        if inner.next_id == id.0 + 1 {
            inner.next_id = id.0;
        }
    }

    /// Current balance.
    pub fn balance(&self, id: AccountId) -> Result<u64, MarketError> {
        self.inner
            .read()
            .balances
            .get(&id)
            .copied()
            .ok_or(MarketError::NoSuchAccount)
    }

    /// Debits an account (withdrawal).
    pub fn debit(&self, id: AccountId, amount: u64) -> Result<(), MarketError> {
        let mut inner = self.inner.write();
        let bal = inner
            .balances
            .get_mut(&id)
            .ok_or(MarketError::NoSuchAccount)?;
        if *bal < amount {
            return Err(MarketError::InsufficientFunds);
        }
        *bal -= amount;
        Ok(())
    }

    /// Credits an account (deposit).
    pub fn credit(&self, id: AccountId, amount: u64) -> Result<(), MarketError> {
        let mut inner = self.inner.write();
        let bal = inner
            .balances
            .get_mut(&id)
            .ok_or(MarketError::NoSuchAccount)?;
        *bal += amount;
        Ok(())
    }

    /// Atomic transfer between two accounts (PPMSpbs deposits).
    pub fn transfer(&self, from: AccountId, to: AccountId, amount: u64) -> Result<(), MarketError> {
        let mut inner = self.inner.write();
        if !inner.balances.contains_key(&to) {
            return Err(MarketError::NoSuchAccount);
        }
        let src = inner
            .balances
            .get_mut(&from)
            .ok_or(MarketError::NoSuchAccount)?;
        if *src < amount {
            return Err(MarketError::InsufficientFunds);
        }
        *src -= amount;
        *inner.balances.get_mut(&to).expect("checked above") += amount;
        Ok(())
    }

    /// Sum of all balances — conserved by every in-bank operation
    /// except explicit withdrawals into e-cash (tests assert on this).
    pub fn total_supply(&self) -> u64 {
        self.inner.read().balances.values().sum()
    }

    /// Serializable snapshot of the ledger (operational persistence —
    /// a real market administrator checkpoints its ledger).
    pub fn snapshot(&self) -> BankSnapshot {
        let inner = self.inner.read();
        let mut accounts: Vec<(u64, u64)> = inner
            .balances
            .iter()
            .map(|(id, bal)| (id.0, *bal))
            .collect();
        accounts.sort_unstable();
        BankSnapshot {
            next_id: inner.next_id,
            accounts,
        }
    }

    /// Restores one account at an explicit id — the cold-start
    /// recovery path replaying a committed registration whose id was
    /// already handed to the client. The id counter advances past the
    /// restored id so future registrations never collide.
    pub fn restore_account(&self, id: AccountId, balance: u64) {
        let mut inner = self.inner.write();
        inner.next_id = inner.next_id.max(id.0 + 1);
        inner.balances.insert(id, balance);
    }

    /// Restores a bank from a snapshot.
    pub fn restore(snapshot: &BankSnapshot) -> Bank {
        let bank = Bank::new();
        {
            let mut inner = bank.inner.write();
            inner.next_id = snapshot.next_id;
            inner.balances = snapshot
                .accounts
                .iter()
                .map(|&(id, bal)| (AccountId(id), bal))
                .collect();
        }
        bank
    }
}

/// A point-in-time copy of the ledger, serializable with serde.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct BankSnapshot {
    /// Next account id to hand out.
    pub next_id: u64,
    /// `(account id, balance)` pairs, sorted by id.
    pub accounts: Vec<(u64, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_and_balance() {
        let bank = Bank::new();
        let a = bank.open_account(100);
        let b = bank.open_account(0);
        assert_ne!(a, b);
        assert_eq!(bank.balance(a), Ok(100));
        assert_eq!(bank.balance(b), Ok(0));
        assert_eq!(
            bank.balance(AccountId(999)),
            Err(MarketError::NoSuchAccount)
        );
    }

    #[test]
    fn debit_credit() {
        let bank = Bank::new();
        let a = bank.open_account(50);
        bank.debit(a, 20).unwrap();
        assert_eq!(bank.balance(a), Ok(30));
        bank.credit(a, 5).unwrap();
        assert_eq!(bank.balance(a), Ok(35));
        assert_eq!(bank.debit(a, 100), Err(MarketError::InsufficientFunds));
    }

    #[test]
    fn transfer_conserves_supply() {
        let bank = Bank::new();
        let a = bank.open_account(10);
        let b = bank.open_account(10);
        bank.transfer(a, b, 7).unwrap();
        assert_eq!(bank.balance(a), Ok(3));
        assert_eq!(bank.balance(b), Ok(17));
        assert_eq!(bank.total_supply(), 20);
        assert_eq!(
            bank.transfer(a, b, 100),
            Err(MarketError::InsufficientFunds)
        );
        assert_eq!(
            bank.transfer(a, AccountId(42), 1),
            Err(MarketError::NoSuchAccount)
        );
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let bank = Bank::new();
        let a = bank.open_account(10);
        let b = bank.open_account(32);
        bank.transfer(b, a, 2).unwrap();
        let snap = bank.snapshot();
        let restored = Bank::restore(&snap);
        assert_eq!(restored.balance(a), Ok(12));
        assert_eq!(restored.balance(b), Ok(30));
        // New accounts continue from the snapshotted counter.
        let c = restored.open_account(0);
        assert!(c > b);
        assert_eq!(restored.snapshot().accounts.len(), 3);
    }

    #[test]
    fn concurrent_transfers_conserve() {
        let bank = Bank::new();
        let a = bank.open_account(10_000);
        let b = bank.open_account(10_000);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let bank = bank.clone();
                s.spawn(move || {
                    for _ in 0..500 {
                        let _ = bank.transfer(a, b, 1);
                        let _ = bank.transfer(b, a, 1);
                    }
                });
            }
        });
        assert_eq!(bank.total_supply(), 20_000);
    }
}
