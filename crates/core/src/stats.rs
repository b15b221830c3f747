//! Per-network gain statistics used by greedy choices and reset detection.

use crate::NetworkId;
use serde::{Deserialize, Deserializer, Serialize};

/// Running statistics about the gains observed from each network.
///
/// Smart EXP3 uses these for its greedy choices ("the network from which the
/// highest average gain has been observed"), for its reset heuristic (a
/// sustained ≥15 % drop on the most-used network), and the [`Greedy`]
/// baseline uses them as its whole decision rule.
///
/// These counters sit on the per-slot hot path of every session a fleet
/// engine hosts, so they are stored as flat vectors sorted by network id
/// (binary-searched) rather than a tree map. The ids live apart from the
/// entries: a search walks a dense array of 4-byte keys and touches one
/// entry, which matters once hundreds of networks per session (7–16 KB of
/// entries) no longer fit in cache. Iteration order (ascending id) and the
/// serialized shape (a sequence of `[id, entry]` pairs under
/// `per_network`) are those of the previous `BTreeMap`-backed
/// representation. The most-used cache is derived: it is not written, and
/// reading rebuilds it from the entries.
///
/// [`Greedy`]: crate::Greedy
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetworkStats {
    /// Networks with an entry, ascending.
    ids: Vec<NetworkId>,
    /// `entries[i]` belongs to `ids[i]`.
    entries: Vec<PerNetwork>,
    /// Running `(network, slots)` of the most-used network — the reset
    /// heuristic polls it every slot, and slot counts only ever grow by one,
    /// so the argmax is maintained incrementally instead of rescanned.
    /// Matches [`most_used`](Self::most_used)'s historical tie-break (the
    /// highest id among networks tied for the most slots) exactly.
    most_used_cache: Option<(NetworkId, u64)>,
}

#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct PerNetwork {
    slots: u64,
    blocks: u64,
    total_gain: f64,
}

impl NetworkStats {
    /// Creates an empty statistics table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Mutable entry for `network`, inserted (default) if absent.
    fn entry_mut(&mut self, network: NetworkId) -> &mut PerNetwork {
        let i = match self.ids.binary_search(&network) {
            Ok(i) => i,
            Err(i) => {
                self.ids.insert(i, network);
                self.entries.insert(i, PerNetwork::default());
                i
            }
        };
        &mut self.entries[i]
    }

    /// Shared entry for `network`, if present.
    fn entry(&self, network: NetworkId) -> Option<&PerNetwork> {
        self.ids
            .binary_search(&network)
            .ok()
            .map(|i| &self.entries[i])
    }

    /// `(network, entry)` pairs, ascending by network.
    fn pairs(&self) -> impl Iterator<Item = (NetworkId, &PerNetwork)> + '_ {
        self.ids.iter().copied().zip(&self.entries)
    }

    /// Records one slot's scaled gain on `network`.
    pub fn record_slot(&mut self, network: NetworkId, scaled_gain: f64) {
        let entry = self.entry_mut(network);
        entry.slots += 1;
        entry.total_gain += scaled_gain;
        let slots = entry.slots;
        // Incremental argmax: a single increment can only promote `network`.
        // The tie rule (higher id wins) mirrors the rescan's last-wins
        // iteration over ascending ids.
        match self.most_used_cache {
            Some((cached, cached_slots)) if cached == network => {
                self.most_used_cache = Some((network, slots));
                debug_assert_eq!(slots, cached_slots + 1);
            }
            Some((cached, cached_slots))
                if slots > cached_slots || (slots == cached_slots && network > cached) =>
            {
                self.most_used_cache = Some((network, slots));
            }
            Some(_) => {}
            None => self.most_used_cache = Some((network, slots)),
        }
    }

    /// Records that a block was started on `network`.
    pub fn record_block(&mut self, network: NetworkId) {
        self.entry_mut(network).blocks += 1;
    }

    /// Number of blocks started on `network`.
    #[must_use]
    pub fn blocks(&self, network: NetworkId) -> u64 {
        self.entry(network).map_or(0, |e| e.blocks)
    }

    /// Number of slots spent on `network`.
    #[must_use]
    pub fn slots(&self, network: NetworkId) -> u64 {
        self.entry(network).map_or(0, |e| e.slots)
    }

    /// Average scaled gain per slot on `network` (`None` if never visited).
    #[must_use]
    pub fn average_gain(&self, network: NetworkId) -> Option<f64> {
        self.entry(network).and_then(|e| {
            if e.slots == 0 {
                None
            } else {
                Some(e.total_gain / e.slots as f64)
            }
        })
    }

    /// The network with the highest average gain, breaking ties towards the
    /// lowest identifier. `None` when nothing has been observed yet.
    #[must_use]
    pub fn best_average(&self) -> Option<NetworkId> {
        self.pairs()
            .filter(|(_, e)| e.slots > 0)
            .map(|(n, e)| (n, e.total_gain / e.slots as f64))
            .fold(
                None,
                |best: Option<(NetworkId, f64)>, (n, avg)| match best {
                    Some((_, best_avg)) if best_avg >= avg => best,
                    _ => Some((n, avg)),
                },
            )
            .map(|(n, _)| n)
    }

    /// The network on which the most slots have been spent (the `i_max` of
    /// §V), if any observation was made. O(1): read from the incrementally
    /// maintained cache.
    #[must_use]
    pub fn most_used(&self) -> Option<NetworkId> {
        self.most_used_cache.map(|(n, _)| n)
    }

    /// Recomputes the most-used cache from scratch (after bulk mutations
    /// and on restore).
    fn rescan_most_used(&mut self) {
        self.most_used_cache = self
            .pairs()
            .filter(|(_, e)| e.slots > 0)
            .max_by_key(|(_, e)| e.slots)
            .map(|(n, e)| (n, e.slots));
    }

    /// The networks with at least one recorded slot or block, ascending.
    pub fn networks(&self) -> impl Iterator<Item = NetworkId> + '_ {
        self.ids.iter().copied()
    }

    /// Forgets everything (used by Smart EXP3's minimal reset, which clears
    /// the data backing greedy decisions while *keeping* the EXP3 weights).
    pub fn clear(&mut self) {
        self.ids.clear();
        self.entries.clear();
        self.most_used_cache = None;
    }

    /// Drops statistics about networks not in `available` (after mobility).
    pub fn retain_networks(&mut self, available: &[NetworkId]) {
        // Stable in-place compaction of both arrays in lockstep.
        let mut kept = 0;
        for i in 0..self.ids.len() {
            if available.contains(&self.ids[i]) {
                self.ids.swap(kept, i);
                self.entries.swap(kept, i);
                kept += 1;
            }
        }
        self.ids.truncate(kept);
        self.entries.truncate(kept);
        self.rescan_most_used();
    }
}

/// Writes `(network, entry)` pairs, `{"per_network":[[id,{…}],…]}`, so
/// checkpoints do not see the split layout. The most-used cache is not
/// written: reading rebuilds it, so a text cannot make it disagree with the
/// entries.
impl Serialize for NetworkStats {
    fn serialize(&self, out: &mut String) {
        out.push_str("{\"per_network\":[");
        for (i, pair) in self.pairs().enumerate() {
            if i > 0 {
                out.push(',');
            }
            pair.serialize(out);
        }
        out.push_str("]}");
    }
}

/// The written layout of [`NetworkStats`].
#[derive(Deserialize)]
struct NetworkStatsText {
    per_network: Vec<(NetworkId, PerNetwork)>,
}

impl Deserialize for NetworkStats {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, serde::Error> {
        let pairs = NetworkStatsText::deserialize(de)?.per_network;
        // Lookups binary-search the ids, so they must ascend strictly.
        if let Some(pair) = pairs.windows(2).find(|pair| pair[0].0 >= pair[1].0) {
            return Err(serde::Error::custom(format!(
                "`NetworkStats` lists network {} after network {}",
                pair[1].0, pair[0].0
            )));
        }
        let (ids, entries) = pairs.into_iter().unzip();
        let mut stats = NetworkStats {
            ids,
            entries,
            most_used_cache: None,
        };
        stats.rescan_most_used();
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_and_best_network() {
        let mut stats = NetworkStats::new();
        stats.record_slot(NetworkId(0), 0.2);
        stats.record_slot(NetworkId(0), 0.4);
        stats.record_slot(NetworkId(1), 0.9);
        let avg = stats.average_gain(NetworkId(0)).unwrap();
        assert!((avg - 0.3).abs() < 1e-12);
        assert_eq!(stats.best_average(), Some(NetworkId(1)));
        assert_eq!(stats.average_gain(NetworkId(9)), None);
    }

    #[test]
    fn most_used_counts_slots_not_gain() {
        let mut stats = NetworkStats::new();
        for _ in 0..5 {
            stats.record_slot(NetworkId(2), 0.1);
        }
        stats.record_slot(NetworkId(3), 1.0);
        assert_eq!(stats.most_used(), Some(NetworkId(2)));
    }

    #[test]
    fn tie_break_prefers_lower_id() {
        let mut stats = NetworkStats::new();
        stats.record_slot(NetworkId(5), 0.5);
        stats.record_slot(NetworkId(1), 0.5);
        assert_eq!(stats.best_average(), Some(NetworkId(1)));
    }

    #[test]
    fn clear_and_retain() {
        let mut stats = NetworkStats::new();
        stats.record_slot(NetworkId(0), 0.5);
        stats.record_slot(NetworkId(1), 0.5);
        stats.record_block(NetworkId(1));
        stats.retain_networks(&[NetworkId(1)]);
        assert_eq!(stats.average_gain(NetworkId(0)), None);
        assert_eq!(stats.blocks(NetworkId(1)), 1);
        stats.clear();
        assert_eq!(stats.best_average(), None);
    }

    #[test]
    fn empty_stats_have_no_best() {
        let stats = NetworkStats::new();
        assert_eq!(stats.best_average(), None);
        assert_eq!(stats.most_used(), None);
    }

    #[test]
    fn incremental_most_used_matches_a_rescan() {
        // The O(1) cache must agree with a from-scratch argmax (highest id
        // wins ties) after every kind of mutation.
        let rescan = |stats: &NetworkStats| -> Option<NetworkId> {
            let mut best: Option<(NetworkId, u64)> = None;
            for n in stats.networks() {
                let slots = stats.slots(n);
                if slots > 0 && best.is_none_or(|(_, s)| slots >= s) {
                    best = Some((n, slots));
                }
            }
            best.map(|(n, _)| n)
        };
        let mut stats = NetworkStats::new();
        let ids = [3u32, 0, 7, 0, 3, 3, 7, 7, 1, 7, 0, 0, 0];
        for (step, &id) in ids.iter().enumerate() {
            stats.record_slot(NetworkId(id), 0.5);
            assert_eq!(stats.most_used(), rescan(&stats), "step {step}");
        }
        stats.retain_networks(&[NetworkId(1), NetworkId(3)]);
        assert_eq!(stats.most_used(), rescan(&stats));
        for _ in 0..9 {
            stats.record_slot(NetworkId(1), 0.2);
        }
        assert_eq!(stats.most_used(), rescan(&stats));
        assert_eq!(stats.most_used(), Some(NetworkId(1)));
        stats.clear();
        assert_eq!(stats.most_used(), None);
    }

    #[test]
    fn serialized_shape_is_the_pair_layout() {
        let mut stats = NetworkStats::new();
        for (id, gain) in [(7, 0.25), (2, 0.5), (7, 0.125), (4, 1.0)] {
            stats.record_slot(NetworkId(id), gain);
        }
        stats.record_block(NetworkId(9));
        stats.record_block(NetworkId(2));
        stats.record_slot(NetworkId(4), 0.75);
        stats.record_slot(NetworkId(1), 0.0625);
        stats.record_block(NetworkId(1));
        stats.retain_networks(&[NetworkId(1), NetworkId(2), NetworkId(4), NetworkId(7)]);
        // Written by the `Vec<(NetworkId, PerNetwork)>` layout this type had
        // before its ids and entries were split; checkpoints keep it.
        const WIRE: &str = "{\"per_network\":[\
            [1,{\"slots\":1,\"blocks\":1,\"total_gain\":0.0625}],\
            [2,{\"slots\":1,\"blocks\":1,\"total_gain\":0.5}],\
            [4,{\"slots\":2,\"blocks\":0,\"total_gain\":1.75}],\
            [7,{\"slots\":2,\"blocks\":0,\"total_gain\":0.375}]]}";
        assert_eq!(serde_json::to_string(&stats).unwrap(), WIRE);
        let back: NetworkStats = serde_json::from_str(WIRE).unwrap();
        assert_eq!(back, stats);
        assert_eq!(serde_json::to_string(&back).unwrap(), WIRE);
    }

    #[test]
    fn reading_rebuilds_the_most_used_cache() {
        // A written cache is ignored, here one that disagrees with the
        // entries (it names network 1, but 7 has the most slots): the next
        // slot on 7 extends the rebuilt count instead of tripping the
        // incremental update.
        let text = "{\"per_network\":[\
            [1,{\"slots\":1,\"blocks\":0,\"total_gain\":0.5}],\
            [7,{\"slots\":3,\"blocks\":0,\"total_gain\":0.5}]],\
            \"most_used_cache\":[1,9]}";
        let mut stats: NetworkStats = serde_json::from_str(text).unwrap();
        assert_eq!(stats.most_used(), Some(NetworkId(7)));
        stats.record_slot(NetworkId(7), 0.5);
        assert_eq!(stats.most_used(), Some(NetworkId(7)));
        assert_eq!(stats.slots(NetworkId(7)), 4);
    }

    #[test]
    fn reading_rejects_ids_that_do_not_ascend() {
        let entry = "{\"slots\":1,\"blocks\":0,\"total_gain\":0.5}";
        for ids in [[7, 1], [3, 3]] {
            let text = format!(
                "{{\"per_network\":[[{},{entry}],[{},{entry}]]}}",
                ids[0], ids[1]
            );
            let error = serde_json::from_str::<NetworkStats>(&text).unwrap_err();
            assert!(
                error.to_string().contains("after network"),
                "{ids:?}: {error}"
            );
        }
    }
}
