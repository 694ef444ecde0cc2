//! The bulletin board `BB` (paper §IV-A2): the MA publishes job
//! profiles where every market resident can read them. Crucially for
//! the denomination attack, the per-SP payment `w` of each PPMSdec job
//! is **public** here — that is the side channel the cash-break
//! algorithms defeat.

use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

/// A published job profile (paper eq. (1)/(2)): description, payment
/// per SP and the job's pseudonymous identity key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobProfile {
    /// Sequential job id assigned by the board.
    pub job_id: u64,
    /// Job description `jd`.
    pub description: String,
    /// Payment per sensing participant `w` (0 ⇒ unitary market).
    pub payment: u64,
    /// The JO's one-time public key bytes (`rpk_jo`) — NOT its identity.
    pub pseudonym: Vec<u8>,
}

/// The shared bulletin board.
#[derive(Debug, Clone, Default)]
pub struct Bulletin {
    jobs: Arc<RwLock<Vec<JobProfile>>>,
    /// The next job id; ahead of `jobs` while a reserved id is out.
    next_id: Arc<AtomicU64>,
}

impl Bulletin {
    /// Fresh empty board.
    pub fn new() -> Bulletin {
        Bulletin::default()
    }

    /// Publishes a profile, assigning and returning its job id.
    pub fn publish(&self, description: String, payment: u64, pseudonym: Vec<u8>) -> u64 {
        let job_id = self.reserve_id();
        self.restore_job(JobProfile {
            job_id,
            description,
            payment,
            pseudonym,
        });
        job_id
    }

    /// Takes the next job id without publishing its profile;
    /// [`Bulletin::restore_job`] publishes it.
    pub fn reserve_id(&self) -> u64 {
        self.next_id.fetch_add(1, SeqCst)
    }

    /// Hands back a reserved `job_id` whose profile never landed, if no
    /// later id has been taken since.
    pub fn release_id(&self, job_id: u64) {
        let _ = (self.next_id).compare_exchange(job_id + 1, job_id, SeqCst, SeqCst);
    }

    /// Restores a profile at its recorded id — the cold-start
    /// recovery path replaying a committed publication. Ids are dense
    /// (handed out in order), so replay in commit order lands each
    /// job at its recorded slot; a same-id restore overwrites
    /// (idempotent re-application of the same committed record).
    pub fn restore_job(&self, profile: JobProfile) {
        let mut jobs = self.jobs.write();
        let idx = profile.job_id as usize;
        self.next_id.fetch_max(profile.job_id + 1, SeqCst);
        if idx < jobs.len() {
            jobs[idx] = profile;
            return;
        }
        // Fill any gap with placeholders (reachable when a later
        // publication lands while an earlier reserved one is still in
        // flight, or was lost; the earlier one overwrites its slot).
        while jobs.len() < idx {
            let job_id = jobs.len() as u64;
            jobs.push(JobProfile {
                job_id,
                description: String::new(),
                payment: 0,
                pseudonym: Vec::new(),
            });
        }
        jobs.push(profile);
    }

    /// Reads one profile.
    pub fn get(&self, job_id: u64) -> Option<JobProfile> {
        self.jobs.read().get(job_id as usize).cloned()
    }

    /// All published profiles (what any resident — or adversary — sees).
    pub fn list(&self) -> Vec<JobProfile> {
        self.jobs.read().clone()
    }

    /// Number of published jobs.
    pub fn len(&self) -> usize {
        self.jobs.read().len()
    }

    /// `true` iff no jobs are published.
    pub fn is_empty(&self) -> bool {
        self.jobs.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_and_read() {
        let bb = Bulletin::new();
        assert!(bb.is_empty());
        let id0 = bb.publish("noise mapping".into(), 8, vec![1, 2, 3]);
        let id1 = bb.publish("transit tracking".into(), 5, vec![4]);
        assert_eq!(id0, 0);
        assert_eq!(id1, 1);
        assert_eq!(bb.len(), 2);
        let job = bb.get(0).unwrap();
        assert_eq!(job.payment, 8);
        assert_eq!(job.pseudonym, vec![1, 2, 3]);
        assert!(bb.get(7).is_none());
    }

    #[test]
    fn list_is_public_view() {
        let bb = Bulletin::new();
        bb.publish("a".into(), 1, vec![]);
        let view = bb.list();
        assert_eq!(view.len(), 1);
        assert_eq!(view[0].description, "a");
    }

    #[test]
    fn shared_between_clones() {
        let bb = Bulletin::new();
        let bb2 = bb.clone();
        bb2.publish("x".into(), 2, vec![]);
        assert_eq!(bb.len(), 1);
    }
}
