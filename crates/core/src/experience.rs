//! The Experience Manager (Figure 2): a bounded store of reward
//! experiences from both training episodes and online execution, used to
//! monitor convergence and to self-correct the predictor at checkpoints.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

/// Where an experience came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExperienceSource {
    /// Offline training episode.
    Training,
    /// Online (production) execution feedback.
    Online,
}

/// One episode's reward experience.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RewardExperience {
    /// Episode counter.
    pub episode: usize,
    /// Origin of the experience.
    pub source: ExperienceSource,
    /// Sum of per-decision rewards (Section 6's `r_d`).
    pub total_reward: f64,
    /// Number of scheduling decisions taken.
    pub decisions: usize,
    /// The episode's average query duration.
    pub avg_duration: f64,
    /// The episode's 90th-percentile query duration.
    pub p90_duration: f64,
}

/// A bounded FIFO store of experiences.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperienceManager {
    capacity: usize,
    experiences: VecDeque<RewardExperience>,
    next_episode: usize,
}

impl ExperienceManager {
    /// Creates a manager keeping the last `capacity` experiences.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Self { capacity, experiences: VecDeque::with_capacity(capacity), next_episode: 0 }
    }

    /// Records an experience, assigning it the next episode number.
    pub fn record(
        &mut self,
        source: ExperienceSource,
        total_reward: f64,
        decisions: usize,
        avg_duration: f64,
        p90_duration: f64,
    ) -> usize {
        let episode = self.next_episode;
        self.next_episode += 1;
        if self.experiences.len() == self.capacity {
            self.experiences.pop_front();
        }
        self.experiences.push_back(RewardExperience {
            episode,
            source,
            total_reward,
            decisions,
            avg_duration,
            p90_duration,
        });
        episode
    }

    /// Number of stored experiences.
    pub fn len(&self) -> usize {
        self.experiences.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.experiences.is_empty()
    }

    /// Total episodes ever recorded (including evicted ones).
    pub fn episodes_recorded(&self) -> usize {
        self.next_episode
    }

    /// The most recent `n` experiences, oldest first.
    pub fn recent(&self, n: usize) -> Vec<&RewardExperience> {
        let skip = self.experiences.len().saturating_sub(n);
        self.experiences.iter().skip(skip).collect()
    }

    /// Mean total reward over the most recent `n` experiences.
    pub fn mean_recent_reward(&self, n: usize) -> f64 {
        let r = self.recent(n);
        if r.is_empty() {
            return 0.0;
        }
        r.iter().map(|e| e.total_reward).sum::<f64>() / r.len() as f64
    }

    /// Whether the reward has converged: the relative improvement of the
    /// last `window` episodes over the preceding `window` is below
    /// `threshold` (the "improvement procedure continues until the
    /// predictor converges" check of Section 1).
    pub fn converged(&self, window: usize, threshold: f64) -> bool {
        if self.experiences.len() < 2 * window {
            return false;
        }
        let all: Vec<f64> = self.experiences.iter().map(|e| e.total_reward).collect();
        let n = all.len();
        let older: f64 = all[n - 2 * window..n - window].iter().sum::<f64>() / window as f64;
        let newer: f64 = all[n - window..].iter().sum::<f64>() / window as f64;
        // Rewards are negative; improvement means newer > older.
        let improvement = newer - older;
        improvement.abs() <= threshold * older.abs().max(1e-9)
    }

    /// Serializes the store to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("experience serialization cannot fail")
    }

    /// Restores a store from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_evict() {
        let mut m = ExperienceManager::new(3);
        for i in 0..5 {
            m.record(ExperienceSource::Training, -(i as f64), 10, 1.0, 2.0);
        }
        assert_eq!(m.len(), 3);
        assert_eq!(m.episodes_recorded(), 5);
        let recent = m.recent(2);
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[1].episode, 4);
    }

    #[test]
    fn mean_recent_reward() {
        let mut m = ExperienceManager::new(10);
        m.record(ExperienceSource::Training, -10.0, 1, 1.0, 1.0);
        m.record(ExperienceSource::Online, -20.0, 1, 1.0, 1.0);
        assert_eq!(m.mean_recent_reward(2), -15.0);
        assert_eq!(m.mean_recent_reward(1), -20.0);
    }

    #[test]
    fn convergence_detection() {
        let mut m = ExperienceManager::new(100);
        // Steadily improving: not converged.
        for i in 0..20 {
            m.record(ExperienceSource::Training, -100.0 + i as f64 * 4.0, 1, 1.0, 1.0);
        }
        assert!(!m.converged(10, 0.05));
        // Flat: converged.
        let mut flat = ExperienceManager::new(100);
        for _ in 0..20 {
            flat.record(ExperienceSource::Training, -50.0, 1, 1.0, 1.0);
        }
        assert!(flat.converged(10, 0.05));
    }

    #[test]
    fn json_roundtrip() {
        let mut m = ExperienceManager::new(4);
        m.record(ExperienceSource::Training, -1.5, 3, 0.5, 0.9);
        let j = m.to_json();
        let m2 = ExperienceManager::from_json(&j).unwrap();
        assert_eq!(m2.len(), 1);
        assert_eq!(m2.recent(1)[0].total_reward, -1.5);
    }
}
