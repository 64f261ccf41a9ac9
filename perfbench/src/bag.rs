//! The measurement bag a worker process hands back to the orchestrator:
//! named scalars, raw samples, log-bucketed host-time histograms and
//! error-message counts, encoded as one JSON object through the
//! repository's in-tree report module.

use crate::metrics::rank;
use ssmc_sim::Value;
use std::collections::BTreeMap;

/// Scalars merged across units by maximum rather than sum.
const MAX_KEYS: [&str; 3] = ["max_erases", "dindex_depth", "peak_rss_kb"];

/// Sub-buckets per power of two: about 6 % resolution, plenty for host
/// timings whose run-to-run noise is larger.
const SUB_BITS: u32 = 4;

/// Log-linear histogram of host nanoseconds. Exact below 16 ns, then
/// sixteen buckets per power of two. Mergeable, so percentiles over many
/// worker processes need no raw samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LogHist {
    counts: BTreeMap<u32, u64>,
}

impl LogHist {
    fn bucket(v: u64) -> u32 {
        if v < (1 << SUB_BITS) {
            return v as u32;
        }
        let exp = 63 - v.leading_zeros();
        let sub = ((v >> (exp - SUB_BITS)) & ((1 << SUB_BITS) - 1)) as u32;
        ((exp - SUB_BITS + 1) << SUB_BITS) + sub
    }

    /// Midpoint of bucket `b`.
    fn value(b: u32) -> u64 {
        if b < (1 << SUB_BITS) {
            return u64::from(b);
        }
        let exp = (b >> SUB_BITS) + SUB_BITS - 1;
        let sub = u64::from(b & ((1 << SUB_BITS) - 1));
        let lo = (1u64 << exp) + (sub << (exp - SUB_BITS));
        lo + (1u64 << (exp - SUB_BITS)) / 2
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        *self.counts.entry(Self::bucket(v)).or_default() += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Adds another histogram's counts.
    pub fn merge(&mut self, o: &LogHist) {
        for (&b, &c) in &o.counts {
            *self.counts.entry(b).or_default() += c;
        }
    }

    /// Percentile under the same "ten samples beyond" rule as
    /// [`percentile`]; 0 when the histogram is too small for any rank.
    pub fn percentile(&self, q: f64) -> u64 {
        let Some(rank) = rank(self.count() as usize, q) else {
            return 0;
        };
        let mut seen = 0;
        for (&b, &c) in &self.counts {
            seen += c as usize;
            if seen >= rank {
                return Self::value(b);
            }
        }
        unreachable!("rank is at most the sample count")
    }

    fn encode(&self) -> Value {
        Value::Array(
            self.counts
                .iter()
                .flat_map(|(&b, &c)| [Value::Int(i64::from(b)), Value::Int(c as i64)])
                .collect(),
        )
    }

    fn decode(v: &Value) -> Option<LogHist> {
        let a = v.as_array()?;
        let mut h = LogHist::default();
        for pair in a.chunks(2) {
            let [b, c] = pair else { return None };
            h.counts
                .insert(u32::try_from(b.as_u64()?).ok()?, c.as_u64()?);
        }
        Some(h)
    }
}

/// Everything one worker measured.
#[derive(Debug, Clone, Default)]
pub struct Bag {
    /// Named numbers: counters, seconds, shares.
    pub scalars: BTreeMap<String, f64>,
    /// One value per machine (simulated costs, medians over machines).
    pub per_machine: BTreeMap<String, Vec<f64>>,
    /// Host-time distributions.
    pub hists: BTreeMap<String, LogHist>,
    /// Error message (digit runs folded to `#`) → count.
    pub errors: BTreeMap<String, u64>,
}

impl Bag {
    /// Adds `v` to scalar `name`.
    pub fn add(&mut self, name: &str, v: f64) {
        *self.scalars.entry(name.to_owned()).or_default() += v;
    }

    /// Raises scalar `name` to at least `v`.
    pub fn max(&mut self, name: &str, v: f64) {
        let e = self.scalars.entry(name.to_owned()).or_insert(v);
        *e = e.max(v);
    }

    /// Scalar `name`, 0 when never set.
    pub fn get(&self, name: &str) -> f64 {
        self.scalars.get(name).copied().unwrap_or(0.0)
    }

    /// Appends one machine's value of `name`.
    pub fn push(&mut self, name: &str, v: f64) {
        self.per_machine.entry(name.to_owned()).or_default().push(v);
    }

    /// Percentile of host histogram `name` (0 when absent or too small).
    pub fn hist_percentile(&self, name: &str, q: f64) -> u64 {
        self.hists.get(name).map_or(0, |h| h.percentile(q))
    }

    /// Every machine's value of `name`.
    pub fn machines(&self, name: &str) -> &[f64] {
        self.per_machine.get(name).map_or(&[], Vec::as_slice)
    }

    /// Counts one failure message, folding each run of digits to `#` so
    /// messages naming different files or pages aggregate.
    pub fn error(&mut self, msg: &str) {
        let mut folded = String::with_capacity(msg.len());
        for c in msg.chars() {
            if !c.is_ascii_digit() {
                folded.push(c);
            } else if !folded.ends_with('#') {
                folded.push('#');
            }
        }
        *self.errors.entry(folded).or_default() += 1;
    }

    /// Folds another unit's bag into this one.
    pub fn merge(&mut self, o: &Bag) {
        for (k, &v) in &o.scalars {
            if MAX_KEYS.contains(&k.as_str()) {
                self.max(k, v);
            } else {
                self.add(k, v);
            }
        }
        for (k, v) in &o.per_machine {
            self.per_machine
                .entry(k.clone())
                .or_default()
                .extend_from_slice(v);
        }
        for (k, h) in &o.hists {
            self.hists.entry(k.clone()).or_default().merge(h);
        }
        for (k, &c) in &o.errors {
            *self.errors.entry(k.clone()).or_default() += c;
        }
    }

    /// JSON form.
    pub fn encode(&self) -> Value {
        let obj = |pairs: Vec<(String, Value)>| Value::Object(pairs);
        Value::Object(vec![
            (
                "scalars".into(),
                obj(self
                    .scalars
                    .iter()
                    .map(|(k, &v)| (k.clone(), Value::Float(v)))
                    .collect()),
            ),
            (
                "per_machine".into(),
                obj(self
                    .per_machine
                    .iter()
                    .map(|(k, v)| {
                        (
                            k.clone(),
                            Value::Array(v.iter().map(|&x| Value::Float(x)).collect()),
                        )
                    })
                    .collect()),
            ),
            (
                "hists".into(),
                obj(self
                    .hists
                    .iter()
                    .map(|(k, h)| (k.clone(), h.encode()))
                    .collect()),
            ),
            (
                "errors".into(),
                obj(self
                    .errors
                    .iter()
                    .map(|(k, &c)| (k.clone(), Value::Int(c as i64)))
                    .collect()),
            ),
        ])
    }

    /// Parses [`Self::encode`]'s form.
    pub fn decode(v: &Value) -> Option<Bag> {
        let mut bag = Bag::default();
        for (k, x) in v.get("scalars")?.as_object()? {
            bag.scalars.insert(k.clone(), x.as_f64()?);
        }
        for (k, x) in v.get("per_machine")?.as_object()? {
            let list = x
                .as_array()?
                .iter()
                .map(Value::as_f64)
                .collect::<Option<_>>()?;
            bag.per_machine.insert(k.clone(), list);
        }
        for (k, x) in v.get("hists")?.as_object()? {
            bag.hists.insert(k.clone(), LogHist::decode(x)?);
        }
        for (k, x) in v.get("errors")?.as_object()? {
            bag.errors.insert(k.clone(), x.as_u64()?);
        }
        Some(bag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_buckets_are_monotone_and_close() {
        let mut last = 0;
        for v in [0u64, 1, 15, 16, 17, 31, 32, 100, 1_000, 123_456, 1 << 40] {
            let b = LogHist::bucket(v);
            assert!(b >= last, "bucket order at {v}");
            last = b;
            let mid = LogHist::value(b);
            let err = (mid as f64 - v as f64).abs() / (v.max(1) as f64);
            assert!(err <= 0.07, "{v} -> {mid}");
        }
    }

    #[test]
    fn hist_percentile_follows_the_ten_beyond_rule() {
        let mut h = LogHist::default();
        for v in 1..=10u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(0.5), 0, "ten samples leave no rank");
        h.record(11);
        assert_eq!(h.percentile(0.99), 1);
    }

    #[test]
    fn bag_round_trips_and_merges() {
        let mut a = Bag::default();
        a.add("ops", 3.0);
        a.max("max_erases", 7.0);
        a.push("energy_j", 5.5);
        a.hists
            .entry("apply.write".into())
            .or_default()
            .record(1234);
        a.error("no such file: /t123");
        a.error("no such file: /t9");
        let b = Bag::decode(&Value::decode(&a.encode().encode()).expect("json")).expect("bag");
        assert_eq!(b.scalars, a.scalars);
        assert_eq!(b.per_machine, a.per_machine);
        assert_eq!(b.hists, a.hists);
        assert_eq!(b.errors.get("no such file: /t#"), Some(&2));
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.get("ops"), 6.0);
        assert_eq!(m.get("max_erases"), 7.0);
        assert_eq!(m.machines("energy_j"), &[5.5, 5.5]);
        assert_eq!(m.hists["apply.write"].count(), 2);
    }
}
